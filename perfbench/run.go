package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// sizes are the input sizes and repeat counts of one run.
type sizes struct {
	side       int // city grid side
	erN        int // vertices of the non-hierarchical (Erdős–Rényi) graph
	absSide    int // side of the fixed city abs_err_mean is computed on
	absPairs   int // fixed pair sample of abs_err_mean
	absSeeds   int // fixed-seed releases of abs_err_mean
	setups     int // set-ups per run; setup_s is their median
	restores   int // imports behind restore_s
	nonhier    int // navigate/commute non-hierarchical creates
	operations int // publish's operator rounds
	batch      int // pairs per batch request
	stream     int // pairs per stream request
}

func sizesFor(smoke bool) sizes {
	if smoke {
		return sizes{side: 12, erN: 60, absSide: 10, absPairs: 20, absSeeds: 2,
			setups: 2, restores: 2, nonhier: 1, operations: 2, batch: 16, stream: 32}
	}
	return sizes{side: 150, erN: 2000, absSide: 60, absPairs: 400, absSeeds: 3,
		setups: 5, restores: 30, nonhier: 3, operations: 4, batch: 256, stream: 1024}
}

// run is the state of one benchmark invocation.
type run struct {
	cfg config
	sz  sizes

	attempted, failed int
	violations        []string
	e2e               map[string]metric
	diag              map[string]metric

	start   time.Time
	tracer  *tracer   // nil when untraced
	layers  *layerSet // per-layer measurements; traced runs only
	closers []func()
}

func newRun(cfg config) *run {
	r := &run{cfg: cfg, sz: sizesFor(cfg.smoke), e2e: map[string]metric{}, diag: map[string]metric{}, start: time.Now()}
	if cfg.trace {
		r.tracer = newTracer()
		r.layers = newLayerSet()
	}
	return r
}

// close stops everything the run started, newest first.
func (r *run) close() {
	for i := len(r.closers) - 1; i >= 0; i-- {
		r.closers[i]()
	}
	r.closers = nil
}

// onClose registers a stop function for close.
func (r *run) onClose(f func()) { r.closers = append(r.closers, f) }

// count scales a per-second request count by the run length; smoke runs
// use a small fixed fraction so the test stays fast.
func (r *run) count(perSecond int) int {
	if r.cfg.smoke {
		return max(3, perSecond/400)
	}
	return perSecond * r.cfg.seconds
}

// tally records one attempted operation and whether it was correct.
func (r *run) tally(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// violate records a failed steady-state or sanity check.
func (r *run) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

// set records an end-to-end metric.
func (r *run) set(name string, value float64, unit string) {
	r.e2e[name] = metric{value, unit}
}

// note records a diagnostic figure: printed to standard error and saved
// with the result, but not one of the benchmark's metrics.
func (r *run) note(name string, value float64, unit string) {
	r.diag[name] = metric{value, unit}
	r.logf("%s = %.6g %s", name, value, unit)
}

// logf prints progress to standard error.
func (r *run) logf(format string, args ...any) {
	fmt.Fprintf(stderr, "[%s %6.2fs] "+format+"\n", append([]any{r.cfg.workload, time.Since(r.start).Seconds()}, args...)...)
}

// heapMB returns the live heap after two collections.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// median returns the median of xs (0 for none); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of sorted ns latencies by the nearest
// rank rule.
func quantile(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	k = min(max(k, 0), len(sorted)-1)
	return float64(sorted[k])
}
