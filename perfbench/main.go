// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload against in-process daemons on real loopback sockets and
// prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones a user of the
// system sees; with -trace 1 the same workload runs with spans recorded
// at every layer boundary, followed by direct calls into each layer,
// and the metrics are the per-layer ones (see BENCHMARK.json).
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload navigate --seed 1 --seconds 10 --trace 0
//
// Workloads: navigate (uniform point/batch/stream queries against a
// hub-label release), commute (rush-hour trips through a coordinator to
// two contraction-hierarchy replicas) and publish (an operator creating,
// importing and deleting releases beside a live reader).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's parsed arguments.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	smoke    bool // tiny city and short counts; set only by the benchmark's own test
	out      string
}

// workloads maps a workload name to its runner.
var workloads = map[string]func(*run) error{
	"navigate": runNavigate,
	"commute":  runCommute,
	"publish":  runPublish,
}

func main() {
	res, err := mainErr(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseArgs(args []string) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: navigate, commute or publish")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the city, trips, graphs and query pairs derive from it")
	fs.IntVar(&cfg.seconds, "seconds", 10, "nominal measuring time; phase request counts scale with it")
	fs.IntVar(&trace, "trace", 0, "1: record spans and report per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.out, "out", "", "directory for result, span and summary files (empty: none)")
	if err := fs.Parse(args); err != nil {
		return cfg, err
	}
	if _, ok := workloads[cfg.workload]; !ok {
		return cfg, fmt.Errorf("unknown -workload %q (want navigate, commute or publish)", cfg.workload)
	}
	if cfg.seconds < 1 {
		return cfg, fmt.Errorf("-seconds must be >= 1, got %d", cfg.seconds)
	}
	if trace != 0 && trace != 1 {
		return cfg, fmt.Errorf("-trace must be 0 or 1, got %d", trace)
	}
	cfg.trace = trace == 1
	return cfg, nil
}

func mainErr(args []string) (*result, error) {
	cfg, err := parseArgs(args)
	if err != nil {
		return nil, err
	}
	return execute(cfg)
}

// execute runs one workload and assembles its result; the test calls it
// directly.
func execute(cfg config) (*result, error) {
	r := newRun(cfg)
	defer r.close()
	if err := workloads[cfg.workload](r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	// Stop the daemons first: their handlers, the coordinator's probes
	// included, record spans until they have exited.
	r.close()
	res := r.result()
	if cfg.trace {
		if err := r.layers.finish(r); err != nil {
			return nil, err
		}
		res.Metrics = r.layers.metrics()
	}
	if err := r.writeOutputs(res); err != nil {
		return nil, err
	}
	return res, nil
}

// result folds the run's counts and end-to-end metrics.
func (r *run) result() *result {
	res := &result{
		Correct:   r.failed == 0 && len(r.violations) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	for name, m := range r.e2e {
		res.Metrics[name] = m
	}
	if r.attempted > 0 {
		res.Metrics["ok_frac"] = metric{float64(r.attempted-r.failed) / float64(r.attempted), "frac"}
	}
	for _, v := range r.violations {
		fmt.Fprintln(stderr, "perfbench: check failed:", v)
	}
	return res
}

// resultPath names the saved result of one (workload, seed, trace) run.
func resultPath(dir, workload string, seed int64, trace bool) string {
	t := 0
	if trace {
		t = 1
	}
	return filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", workload, seed, t))
}

// writeOutputs saves the result and, for traced runs, the spans file and
// the per-layer summary, which it also prints to standard error.
func (r *run) writeOutputs(res *result) error {
	if r.cfg.out == "" {
		if r.cfg.trace {
			fmt.Fprint(stderr, r.layers.summary(r, nil))
		}
		return nil
	}
	if err := os.MkdirAll(r.cfg.out, 0o755); err != nil {
		return err
	}
	// The saved result adds the diagnostics and, for a traced run, its
	// end-to-end values, so a later comparison can read them.
	saved := *res
	saved.Metrics = map[string]metric{}
	for k, v := range res.Metrics {
		saved.Metrics[k] = v
	}
	for k, v := range r.diag {
		saved.Metrics["diag."+k] = v
	}
	if r.cfg.trace {
		for k, v := range r.e2e {
			saved.Metrics["e2e."+k] = v
		}
	}
	line, err := json.Marshal(saved)
	if err != nil {
		return err
	}
	if err := os.WriteFile(resultPath(r.cfg.out, r.cfg.workload, r.cfg.seed, r.cfg.trace), append(line, '\n'), 0o644); err != nil {
		return err
	}
	if !r.cfg.trace {
		return nil
	}
	base := filepath.Join(r.cfg.out, fmt.Sprintf("%s-seed%d", r.cfg.workload, r.cfg.seed))
	if err := r.tracer.writeSpans(base + ".spans.jsonl"); err != nil {
		return err
	}
	summary := r.layers.summary(r, r.untracedBaseline())
	fmt.Fprint(stderr, summary)
	return os.WriteFile(base+".summary.txt", []byte(summary), 0o644)
}

// untracedBaseline loads the untraced result of the same workload and
// seed, for the tracing-overhead line (nil when there is none).
func (r *run) untracedBaseline() map[string]metric {
	data, err := os.ReadFile(resultPath(r.cfg.out, r.cfg.workload, r.cfg.seed, false))
	if err != nil {
		return nil
	}
	var res result
	if json.Unmarshal(data, &res) != nil || len(res.Metrics) == 0 {
		return nil
	}
	return res.Metrics
}

// procs is the client connection count of the capacity phases: one
// connection per core, so load never exceeds what the box can serve.
func procs() int { return runtime.GOMAXPROCS(0) }

// stderr receives progress and reports; the test silences it.
var stderr io.Writer = os.Stderr
