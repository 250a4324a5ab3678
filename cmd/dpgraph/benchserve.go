package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// runBenchServe is the load generator for a running dpgraph serve
// daemon: it discovers ready releases from the listing endpoint (all of
// them, or just -release when given), fires n point or batch requests
// from c concurrent workers over keep-alive connections, and reports
// throughput, latency quantiles, and connection reuse — the numbers
// behind EXPERIMENTS.md E21/E24. With -source it queries distinct
// targets from one fixed source (the shape the daemon's sweep coalescer
// merges); with -stream it pipelines NDJSON point queries over c
// streaming requests instead of one HTTP round trip per query.
func runBenchServe(out *os.File, args []string) error {
	fs := flag.NewFlagSet("dpgraph bench-serve", flag.ContinueOnError)
	var cfg benchConfig
	fs.StringVar(&cfg.url, "url", "http://127.0.0.1:8080", "base URL of a running dpgraph serve")
	fs.StringVar(&cfg.release, "release", "", "release name to query (default: fan across every ready release)")
	fs.IntVar(&cfg.n, "n", 10000, "total requests to send")
	fs.IntVar(&cfg.c, "c", 8, "concurrent client workers")
	fs.IntVar(&cfg.batch, "batch", 1, "pairs per request (1: point endpoint, >1: batch endpoint)")
	fs.Int64Var(&cfg.seed, "seed", 1, "pair-generation seed")
	fs.IntVar(&cfg.source, "source", -1, "query distinct targets from this fixed source vertex (-1: random pairs)")
	fs.BoolVar(&cfg.stream, "stream", false, "pipeline point queries over the NDJSON distances:stream endpoint")
	fs.DurationVar(&cfg.timeout, "timeout", 0, "per-request deadline; timed-out requests count as failures (0: none)")
	maxErr := fs.Float64("max-error-rate", 0, "error budget: exit nonzero only when more than this fraction of requests fail (0: any failure fails the run)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("bench-serve takes no positional arguments, got %q", fs.Args())
	}
	if cfg.n < 1 || cfg.c < 1 || cfg.batch < 1 {
		return fmt.Errorf("-n, -c, and -batch must be >= 1")
	}
	if cfg.stream && cfg.batch != 1 {
		return fmt.Errorf("-stream pipelines point queries; drop -batch (each line is one pair)")
	}
	if cfg.stream && cfg.timeout > 0 {
		return fmt.Errorf("-timeout bounds one HTTP request; a pipelined stream is one long request, drop -timeout")
	}
	if cfg.timeout < 0 {
		return fmt.Errorf("-timeout must be >= 0, got %v", cfg.timeout)
	}
	if *maxErr < 0 || *maxErr >= 1 {
		return fmt.Errorf("-max-error-rate must be in [0, 1), got %v", *maxErr)
	}

	res, err := benchServe(cfg)
	if err != nil {
		return err
	}
	var names []string
	for _, tgt := range res.targets {
		names = append(names, tgt.label())
	}
	if cfg.stream {
		fmt.Fprintf(out, "bench-serve: %d ok / %d failed stream queries against release(s) %s in %.2fs (%d streams)\n",
			res.ok, res.failed, strings.Join(names, " "), res.elapsed.Seconds(), cfg.c)
		fmt.Fprintf(out, "throughput: %.1f pairs/s pipelined\n", res.perSecond())
		fmt.Fprintf(out, "connections: %d dialed, %d reused\n", res.dialed, res.reused)
		return benchErrorBudget(out, "stream queries", res.failed, int64(cfg.n), *maxErr, res.lastErr)
	}
	q := func(p float64) time.Duration { return quantile(res.all, p) }
	fmt.Fprintf(out, "bench-serve: %d ok / %d failed requests against release(s) %s in %.2fs (%d workers, batch %d)\n",
		res.ok, res.failed, strings.Join(names, " "), res.elapsed.Seconds(), cfg.c, cfg.batch)
	fmt.Fprintf(out, "throughput: %.1f requests/s, %.1f pairs/s\n", res.perSecond(), res.perSecond()*float64(cfg.batch))
	fmt.Fprintf(out, "latency: p50 %s  p90 %s  p99 %s\n", q(0.50), q(0.90), q(0.99))
	fmt.Fprintf(out, "connections: %d dialed, %d reused\n", res.dialed, res.reused)
	if len(res.targets) > 1 {
		for tgt, l := range res.latencies {
			if len(l) == 0 {
				continue
			}
			fmt.Fprintf(out, "  %s: %d requests, p50 %s  p90 %s  p99 %s\n",
				res.targets[tgt].label(), len(l), quantile(l, 0.50), quantile(l, 0.90), quantile(l, 0.99))
		}
	}
	return benchErrorBudget(out, "requests", res.failed, int64(cfg.n), *maxErr, res.lastErr)
}

// benchConfig is one bench-serve run: the daemon and release(s) to
// load, and the shape of the load.
type benchConfig struct {
	url     string
	release string // empty: fan across every ready release
	n, c    int
	batch   int // pairs per request; 0 or 1 is the point endpoint
	seed    int64
	source  int // fixed source vertex; -1 draws random pairs
	stream  bool
	timeout time.Duration
}

// benchResult is what one bench-serve run measured. ok and failed
// count requests, or single queries on a stream run.
type benchResult struct {
	targets    []benchRelease
	ok, failed int64
	lastErr    any
	elapsed    time.Duration
	// all holds every answered request's latency, and latencies the
	// same split per target release, each sorted ascending; a stream
	// run records none.
	all       []time.Duration
	latencies [][]time.Duration
	// dialed and reused count connections opened and kept alive.
	dialed, reused int64
}

// perSecond is the answered requests (stream: queries) per second.
func (r benchResult) perSecond() float64 { return float64(r.ok) / r.elapsed.Seconds() }

// quantile reads the p-quantile off sorted latencies.
func quantile(l []time.Duration, p float64) time.Duration { return l[int(p*float64(len(l)-1))] }

// benchServe runs one load against a serving daemon or coordinator and
// returns what it measured. It fails only when the daemon cannot be
// benched at all: no matching release, or every request failing.
func benchServe(cfg benchConfig) (benchResult, error) {
	cfg.batch = max(cfg.batch, 1)
	targets, err := benchReleases(cfg.url, cfg.release)
	if err != nil {
		return benchResult{}, err
	}
	if cfg.source >= 0 {
		for _, tgt := range targets {
			if cfg.source >= tgt.n {
				return benchResult{}, fmt.Errorf("-source %d is out of range for release %s (n=%d)", cfg.source, tgt.name, tgt.n)
			}
		}
	}

	// The default transport caps idle conns per host at 2: past a
	// handful of workers every request races for a keep-alive slot,
	// loses, and re-dials — the benchmark measures connection churn, not
	// the daemon. Size the pools to the worker count so each worker owns
	// a persistent connection, and count dials vs reuses to prove it.
	transport := &http.Transport{
		MaxIdleConns:        cfg.c + 16,
		MaxIdleConnsPerHost: cfg.c,
		MaxConnsPerHost:     cfg.c,
		IdleConnTimeout:     90 * time.Second,
	}
	defer transport.CloseIdleConnections()
	// Per-request deadline via the client so it covers dial, headers,
	// and body; a request that exceeds it surfaces as a failure.
	client := &http.Client{Transport: transport, Timeout: cfg.timeout}
	var dialed, reused atomic.Int64
	ctx := httptrace.WithClientTrace(context.Background(), &httptrace.ClientTrace{
		GotConn: func(info httptrace.GotConnInfo) {
			if info.Reused {
				reused.Add(1)
			} else {
				dialed.Add(1)
			}
		},
	})
	res := benchResult{targets: targets}
	if cfg.stream {
		benchStream(ctx, client, cfg, &res)
	} else {
		benchRequests(ctx, client, cfg, &res)
	}
	res.dialed, res.reused = dialed.Load(), reused.Load()
	if res.ok == 0 {
		return res, fmt.Errorf("all %d requests failed (last error: %v)", cfg.n, res.lastErr)
	}
	return res, nil
}

// benchRequests fires cfg.n point or batch requests, one HTTP round
// trip each, from cfg.c workers.
func benchRequests(ctx context.Context, client *http.Client, cfg benchConfig, res *benchResult) {
	targets := res.targets
	// Pregenerate a shared pool of request targets (and batch bodies),
	// spreading pool slots across the benched releases, so workers spend
	// their time on requests, not on formatting. Fixed-source runs build
	// each request on the fly instead: their point is a fresh target
	// every time (repeats would hit the daemon's result cache and
	// measure memoization, not serving).
	rng := rand.New(rand.NewSource(cfg.seed))
	const pool = 1024
	urls := make([]string, pool)
	bodies := make([]string, pool)
	if cfg.source < 0 {
		for i := range urls {
			tgt := targets[i%len(targets)]
			urls[i], bodies[i] = benchRequest(cfg, tgt, func() (int, int) { return rng.Intn(tgt.n), rng.Intn(tgt.n) })
		}
	}

	var (
		next      atomic.Int64 // request tickets
		failures  atomic.Int64
		lastError atomic.Value
		wg        sync.WaitGroup
	)
	// Latencies are kept per (worker, release) so the report can break
	// results down by release — and therefore by index mode — instead of
	// folding differently indexed releases into one number.
	latencies := make([][][]time.Duration, cfg.c)
	start := time.Now()
	for wk := 0; wk < cfg.c; wk++ {
		wg.Add(1)
		go func(wk int) {
			defer wg.Done()
			lat := make([][]time.Duration, len(targets))
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.n) {
					break
				}
				ti := int(i % int64(len(targets)))
				tgt := targets[ti]
				var reqURL, body string
				if cfg.source >= 0 {
					k := i * int64(cfg.batch)
					reqURL, body = benchRequest(cfg, tgt, func() (int, int) {
						k++
						return cfg.source, benchTargetVertex(cfg.source, tgt.n, k-1)
					})
				} else {
					reqURL = urls[i%pool]
					body = bodies[i%pool]
					ti = int(i % pool % int64(len(targets)))
				}
				t0 := time.Now()
				var resp *http.Response
				var err error
				if cfg.batch == 1 {
					var req *http.Request
					if req, err = http.NewRequestWithContext(ctx, http.MethodGet, reqURL, nil); err == nil {
						resp, err = client.Do(req)
					}
				} else {
					var req *http.Request
					if req, err = http.NewRequestWithContext(ctx, http.MethodPost, reqURL, strings.NewReader(body)); err == nil {
						req.Header.Set("Content-Type", "application/json")
						resp, err = client.Do(req)
					}
				}
				if err == nil {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("status %s", resp.Status)
					}
				}
				if err != nil {
					failures.Add(1)
					lastError.Store(err.Error())
					continue
				}
				lat[ti] = append(lat[ti], time.Since(t0))
			}
			latencies[wk] = lat
		}(wk)
	}
	wg.Wait()
	res.elapsed = time.Since(start)

	res.latencies = make([][]time.Duration, len(targets))
	for _, lat := range latencies {
		for tgt, l := range lat {
			res.latencies[tgt] = append(res.latencies[tgt], l...)
			res.all = append(res.all, l...)
		}
	}
	sortDurations(res.all)
	for _, l := range res.latencies {
		sortDurations(l)
	}
	res.ok, res.failed, res.lastErr = int64(len(res.all)), failures.Load(), lastError.Load()
}

func sortDurations(l []time.Duration) { sort.Slice(l, func(i, j int) bool { return l[i] < l[j] }) }

// benchRequest formats one request to tgt: a point GET when cfg.batch
// is 1, else a batch POST body of cfg.batch pairs, each drawn from pair.
func benchRequest(cfg benchConfig, tgt benchRelease, pair func() (int, int)) (reqURL, body string) {
	if cfg.batch == 1 {
		s, t := pair()
		return fmt.Sprintf("%s/v1/releases/%s/distance?s=%d&t=%d", cfg.url, tgt.name, s, t), ""
	}
	var b strings.Builder
	b.WriteString("[")
	for k := 0; k < cfg.batch; k++ {
		if k > 0 {
			b.WriteString(",")
		}
		s, t := pair()
		fmt.Fprintf(&b, "[%d,%d]", s, t)
	}
	b.WriteString("]")
	return fmt.Sprintf("%s/v1/releases/%s/distances", cfg.url, tgt.name), b.String()
}

// benchErrorBudget applies the -max-error-rate error budget: a failure
// rate within the budget reports and passes, anything above it (or any
// failure with a zero budget) fails the run.
func benchErrorBudget(out io.Writer, what string, failed, total int64, budget float64, lastErr any) error {
	if failed == 0 {
		return nil
	}
	rate := float64(failed) / float64(total)
	if rate > budget {
		return fmt.Errorf("error rate %.4f (%d of %d %s) exceeds budget %g (last error: %v)",
			rate, failed, total, what, budget, lastErr)
	}
	fmt.Fprintf(out, "error rate %.4f (%d of %d %s) within budget %g\n", rate, failed, total, what, budget)
	return nil
}

// benchTargetVertex spreads ticket i over the n-1 vertices other than
// src, cycling so consecutive tickets query distinct targets.
func benchTargetVertex(src, n int, i int64) int {
	return (src + 1 + int(i%int64(n-1))) % n
}

// benchStream drives the pipelined NDJSON endpoint: each of cfg.c
// workers opens one distances:stream request and pours its share of the
// cfg.n queries down it while reading answers back, so the wire carries
// no per-query HTTP overhead. res counts answered queries across all
// streams.
func benchStream(ctx context.Context, client *http.Client, cfg benchConfig, res *benchResult) {
	targets, n, c, seed, source := res.targets, cfg.n, cfg.c, cfg.seed, cfg.source
	var (
		answered  atomic.Int64
		failures  atomic.Int64
		lastError atomic.Value
		wg        sync.WaitGroup
	)
	start := time.Now()
	for wk := 0; wk < c; wk++ {
		quota := n / c
		if wk < n%c {
			quota++
		}
		if quota == 0 {
			continue
		}
		wg.Add(1)
		go func(wk, quota int) {
			defer wg.Done()
			tgt := targets[wk%len(targets)]
			pr, pw := io.Pipe()
			req, err := http.NewRequestWithContext(ctx, http.MethodPost, cfg.url+"/v1/releases/"+tgt.name+"/distances:stream", pr)
			if err != nil {
				failures.Add(int64(quota))
				lastError.Store(err.Error())
				return
			}
			req.Header.Set("Content-Type", "text/plain")
			go func() {
				rng := rand.New(rand.NewSource(seed + int64(wk)))
				buf := make([]byte, 0, 64<<10)
				base := int64(wk) * int64(quota)
				for i := 0; i < quota; i++ {
					var s, t int
					if source >= 0 {
						s, t = source, benchTargetVertex(source, tgt.n, base+int64(i))
					} else {
						s, t = rng.Intn(tgt.n), rng.Intn(tgt.n)
					}
					buf = strconv.AppendInt(buf, int64(s), 10)
					buf = append(buf, ' ')
					buf = strconv.AppendInt(buf, int64(t), 10)
					buf = append(buf, '\n')
					if len(buf) >= 32<<10 {
						if _, err := pw.Write(buf); err != nil {
							return // reader side failed; it reports the error
						}
						buf = buf[:0]
					}
				}
				if len(buf) > 0 {
					pw.Write(buf) //nolint:errcheck // reader side reports failures
				}
				pw.Close()
			}()
			resp, err := client.Do(req)
			if err != nil {
				pr.CloseWithError(err)
				failures.Add(int64(quota))
				lastError.Store(err.Error())
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
				pr.CloseWithError(fmt.Errorf("status %s", resp.Status))
				failures.Add(int64(quota))
				lastError.Store(fmt.Sprintf("status %s: %s", resp.Status, strings.TrimSpace(string(body))))
				return
			}
			br := bufio.NewReaderSize(resp.Body, 64<<10)
			got := 0
			for {
				line, err := br.ReadSlice('\n')
				if len(line) >= 3 && line[0] == '{' {
					if line[1] == '"' && line[2] == 'e' { // {"error":...} terminates the stream
						failures.Add(int64(quota - got))
						lastError.Store(strings.TrimSpace(string(line)))
						pr.CloseWithError(fmt.Errorf("server error"))
						return
					}
					got++
				}
				if err != nil {
					break
				}
			}
			answered.Add(int64(got))
			if got != quota {
				failures.Add(int64(quota - got))
				lastError.Store(fmt.Sprintf("stream answered %d of %d queries", got, quota))
			}
		}(wk, quota)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.ok, res.failed, res.lastErr = answered.Load(), failures.Load(), lastError.Load()
}

// benchRelease is one release the generator fires at: its name, the
// vertex count pairs are drawn from, and the query-index mode it
// serves with (so the report distinguishes ch from hl runs).
type benchRelease struct {
	name  string
	n     int
	index string
}

// label renders the release with its index mode for report lines.
func (r benchRelease) label() string {
	idx := r.index
	if idx == "" {
		idx = "off"
	}
	return fmt.Sprintf("%s[index=%s]", r.name, idx)
}

// benchReleases asks the serving daemon for the benchable releases:
// the named one when name is non-empty (it must be ready), otherwise
// every ready release with enough vertices to generate pairs.
func benchReleases(baseURL, name string) ([]benchRelease, error) {
	resp, err := http.Get(baseURL + "/v1/releases")
	if err != nil {
		return nil, fmt.Errorf("listing releases: %w", err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("listing releases: status %s: %s", resp.Status, data)
	}
	var list struct {
		Releases []struct {
			Name   string `json:"name"`
			Status string `json:"status"`
			N      int    `json:"n"`
			Index  string `json:"index"`
		} `json:"releases"`
	}
	if err := json.Unmarshal(data, &list); err != nil {
		return nil, fmt.Errorf("bad listing: %w", err)
	}
	if name != "" {
		for _, rel := range list.Releases {
			if rel.Name != name {
				continue
			}
			if rel.Status != "ready" {
				return nil, fmt.Errorf("release %q is %s, not ready", name, rel.Status)
			}
			if rel.N < 2 {
				return nil, fmt.Errorf("release %q serves %d vertices; need >= 2 to generate pairs", name, rel.N)
			}
			return []benchRelease{{name: rel.Name, n: rel.N, index: rel.Index}}, nil
		}
		var names []string
		for _, rel := range list.Releases {
			names = append(names, rel.Name)
		}
		return nil, fmt.Errorf("release %q not found; server has: %s", name, strings.Join(names, " "))
	}
	var targets []benchRelease
	for _, rel := range list.Releases {
		if rel.Status == "ready" && rel.N >= 2 {
			targets = append(targets, benchRelease{name: rel.Name, n: rel.N, index: rel.Index})
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("no ready releases to bench (see GET %s/v1/releases)", baseURL)
	}
	return targets, nil
}
