package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/dpgraph"
)

// runFleet is the multi-process scaling and fault-tolerance bench: it
// seals one seeded release from -graph, boots -n real `dpgraph serve`
// replica processes from that snapshot plus one `dpgraph route`
// coordinator process, then benches through the coordinator at every
// scale from 1 replica to all -n (replicas join the pool live over
// POST /v1/replicas), reporting aggregate throughput per scale — the
// numbers behind EXPERIMENTS.md E25. Every replica runs under
// GOMAXPROCS=-procs so scaling is visible even on a small machine where
// one unrestricted replica would saturate every core by itself.
func runFleet(out *os.File, args []string) error {
	fs := flag.NewFlagSet("dpgraph fleet", flag.ContinueOnError)
	var cfg fleetConfig
	fs.StringVar(&cfg.graphPath, "graph", "", "graph file the benched release is sealed from (required)")
	fs.IntVar(&cfg.replicas, "n", 3, "replica processes to boot")
	fs.IntVar(&cfg.procs, "procs", 1, "GOMAXPROCS per replica (0: unrestricted)")
	fs.IntVar(&cfg.requests, "requests", 20000, "bench requests per scale")
	fs.IntVar(&cfg.workers, "c", 16, "concurrent bench workers")
	fs.StringVar(&cfg.index, "index", "off", "query index sealed into the benched release: off, auto, ch, alt, hl")
	fs.Int64Var(&cfg.seed, "seed", 7, "deterministic release seed (replicas must serve identical values)")
	fs.DurationVar(&cfg.probe, "probe-interval", 250*time.Millisecond, "coordinator health-probe period")
	fs.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "per-request bench deadline")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("fleet takes no positional arguments, got %q", fs.Args())
	}
	if cfg.graphPath == "" {
		return fmt.Errorf("fleet needs -graph FILE to seal the benched release from")
	}
	if cfg.replicas < 1 {
		return fmt.Errorf("-n must be >= 1, got %d", cfg.replicas)
	}
	if cfg.procs < 0 {
		return fmt.Errorf("-procs must be >= 0, got %d", cfg.procs)
	}
	if cfg.requests < 1 || cfg.workers < 1 {
		return fmt.Errorf("-requests and -c must be >= 1")
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating own binary: %w", err)
	}
	qps, err := fleetRun(out, exe, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "\nfleet scaling (%d requests x %d workers per scale, release seed %d):\n", cfg.requests, cfg.workers, cfg.seed)
	fmt.Fprintf(out, "%-10s %14s %10s\n", "replicas", "aggregate qps", "vs 1")
	for i, q := range qps {
		fmt.Fprintf(out, "%-10d %14.1f %9.2fx\n", i+1, q, q/qps[0])
	}
	return nil
}

// fleetConfig is one fleet run.
type fleetConfig struct {
	graphPath string
	replicas  int
	procs     int // GOMAXPROCS per replica; 0 leaves it unrestricted
	requests  int // bench requests per scale
	workers   int
	index     string
	seed      int64
	probe     time.Duration
	timeout   time.Duration
}

// fleetRun runs the fleet bench with exe as the dpgraph binary the
// replicas and the coordinator run as, logging progress to out. It
// returns the aggregate requests/s at each scale: qps[i] is i+1
// replicas.
func fleetRun(out io.Writer, exe string, cfg fleetConfig) (qps []float64, err error) {
	dir, err := os.MkdirTemp("", "dpgraph-fleet-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Seal the benched release once, in-process: every replica restores
	// the same artifact, so any of them answers any query identically.
	snapPath := filepath.Join(dir, "bench.dpsnap")
	if err := fleetSeal(cfg.graphPath, snapPath, cfg.index, cfg.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "fleet: sealed benched release to %s (seed %d, index %s)\n", snapPath, cfg.seed, orNone(cfg.index))

	// Boot all N replicas up front; they join the coordinator one scale
	// at a time.
	replicas, err := startFleetReplicas(exe, cfg.graphPath, dir, cfg.replicas, cfg.procs)
	defer killFleetProcs(replicas)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "fleet: %d replica(s) ready (GOMAXPROCS=%d each)\n", len(replicas), cfg.procs)

	coord, err := startFleetCoordinator(exe, cfg.probe, "http://"+replicas[0].addr)
	if err != nil {
		return nil, err
	}
	defer coord.kill()
	coordURL := "http://" + coord.addr
	fmt.Fprintf(out, "fleet: coordinator on %s (probe interval %v)\n", coordURL, cfg.probe)

	// Bench every scale; replica i joins the pool right before scale
	// i+1 runs, exercising live registration on the way.
	for scale := 1; scale <= cfg.replicas; scale++ {
		if scale > 1 {
			if err := fleetRegister(coordURL, "http://"+replicas[scale-1].addr); err != nil {
				return nil, fmt.Errorf("registering replica %d: %w", scale-1, err)
			}
		}
		res, err := benchServe(benchConfig{url: coordURL, release: "bench", n: cfg.requests, c: cfg.workers, seed: 1, source: -1, timeout: cfg.timeout})
		if err == nil && res.failed > 0 {
			err = fmt.Errorf("%d of %d requests failed (last error: %v)", res.failed, cfg.requests, res.lastErr)
		}
		if err != nil {
			return nil, fmt.Errorf("bench at scale %d: %w", scale, err)
		}
		qps = append(qps, res.perSecond())
		fmt.Fprintf(out, "fleet: scale %d -> %.1f requests/s\n", scale, res.perSecond())
	}
	return qps, nil
}

// startFleetReplicas boots n `dpgraph serve` replicas restoring every
// snapshot in dir, each under GOMAXPROCS=procs when procs > 0, and
// waits for all of them to become ready. The replicas it started are
// returned even on error, for the caller to kill.
func startFleetReplicas(exe, graphPath, dir string, n, procs int) ([]*fleetProc, error) {
	procsEnv := ""
	if procs > 0 {
		procsEnv = fmt.Sprintf("GOMAXPROCS=%d", procs)
	}
	var replicas []*fleetProc
	for i := 0; i < n; i++ {
		p, err := startFleetProc(exe, []string{
			"-graph", graphPath, "serve",
			"-addr", "127.0.0.1:0",
			"-snapshot-dir", dir,
			"-drain-grace", "0s",
		}, procsEnv)
		if err != nil {
			return replicas, fmt.Errorf("booting replica %d: %w", i, err)
		}
		replicas = append(replicas, p)
	}
	for i, p := range replicas {
		if err := fleetWaitReady("http://"+p.addr, 10*time.Second); err != nil {
			return replicas, fmt.Errorf("replica %d (%s) never became ready: %w", i, p.addr, err)
		}
	}
	return replicas, nil
}

// startFleetCoordinator boots a `dpgraph route` coordinator over the
// given comma-separated replica URLs and waits for it to become ready.
func startFleetCoordinator(exe string, probe time.Duration, replicaURLs string) (*fleetProc, error) {
	coord, err := startFleetProc(exe, []string{
		"route",
		"-addr", "127.0.0.1:0",
		"-replicas", replicaURLs,
		"-probe-interval", probe.String(),
		"-drain-grace", "0s",
	}, "")
	if err != nil {
		return nil, fmt.Errorf("booting coordinator: %w", err)
	}
	if err := fleetWaitReady("http://"+coord.addr, 10*time.Second); err != nil {
		coord.kill()
		return nil, fmt.Errorf("coordinator never became ready: %w", err)
	}
	return coord, nil
}

func killFleetProcs(procs []*fleetProc) {
	for _, p := range procs {
		p.kill()
	}
}

// fleetSeal materializes one seeded release from the graph file and
// seals it to path — the artifact every fleet replica boots from.
func fleetSeal(graphPath, path, indexMode string, seed int64) error {
	g, w, err := loadGraph(graphPath)
	if err != nil {
		return err
	}
	if _, err := dpgraph.ParseQueryIndexMode(indexMode); err != nil {
		return err
	}
	spec := dpgraph.ReleaseSpec{Mechanism: "release", Epsilon: 1, Seed: seed, Index: indexMode}
	oracle, res, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		return err
	}
	if !dpgraph.Sealable(oracle) {
		return fmt.Errorf("release oracle is not sealable: %w", dpgraph.ErrNotSealable)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := dpgraph.Seal(f, oracle, res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fleetProc is one spawned daemon (replica or coordinator): its
// process, the listen address parsed from its banner line, and a
// drained stdout so the pipe never backpressures the child.
type fleetProc struct {
	cmd  *exec.Cmd
	addr string
}

// startFleetProc launches the dpgraph binary with args, waits for its
// "... on http://ADDR" banner, and keeps draining its output.
func startFleetProc(exe string, args []string, extraEnv string) (*fleetProc, error) {
	cmd := exec.Command(exe, args...)
	cmd.Env = os.Environ()
	if extraEnv != "" {
		cmd.Env = append(cmd.Env, extraEnv)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	cmd.Stderr = cmd.Stdout // daemons report errors on stderr too
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "on http://"); i >= 0 {
				select {
				case addrc <- strings.TrimSpace(line[i+len("on http://"):]):
				default:
				}
			}
		}
	}()
	select {
	case addr := <-addrc:
		return &fleetProc{cmd: cmd, addr: addr}, nil
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		return nil, fmt.Errorf("no listen banner within 15s")
	}
}

func (p *fleetProc) kill() {
	if p == nil || p.cmd == nil || p.cmd.Process == nil {
		return
	}
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// fleetWaitReady polls a daemon's /readyz until it answers 200.
func fleetWaitReady(baseURL string, within time.Duration) error {
	deadline := time.Now().Add(within)
	var lastErr error
	for time.Now().Before(deadline) {
		resp, err := http.Get(baseURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			lastErr = fmt.Errorf("readyz status %s", resp.Status)
		} else {
			lastErr = err
		}
		time.Sleep(50 * time.Millisecond)
	}
	return lastErr
}

// fleetRegister adds a replica to the coordinator's pool and waits for
// it to show up healthy.
func fleetRegister(coordURL, replicaURL string) error {
	body := strings.NewReader(fmt.Sprintf(`{"url":%q}`, replicaURL))
	resp, err := http.Post(coordURL+"/v1/replicas", "application/json", body)
	if err != nil {
		return err
	}
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		return fmt.Errorf("status %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if !strings.Contains(string(data), `"state": "healthy"`) {
		return fmt.Errorf("replica registered but not healthy: %s", strings.TrimSpace(string(data)))
	}
	return nil
}
