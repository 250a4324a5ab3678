package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/dpgraph"
	"repro/internal/dp"
	"repro/internal/graph"
	"repro/internal/graph/index"
)

// layerDef is one per-layer metric: where it is predicted to do
// work and where it should stay idle (change nothing end to end).
type layerDef struct {
	name, unit string
	moves      string
	work, idle string
}

// layerDefs lists every per-layer metric, in report order.
var layerDefs = []layerDef{
	{"dp.fill_ns_per_edge", "ns", "publish_s (at most its share)", "publish", "navigate, commute"},
	{"dpgraph.release_s", "s", "publish_s", "publish", "navigate, commute"},
	{"index.ch_build_s", "s", "commute setup_s, publish_s", "commute setup, publish", "navigate"},
	{"index.hl_build_s", "s", "navigate setup_s, publish_s, publish lat_p99_us", "navigate setup, publish", "commute"},
	{"index.auto_nonhier_build_s", "s", "publish_nonhier_s", "publish", "navigate, commute"},
	{"index.query_ns", "ns", "navigate lat_p50_us, rps; commute pairs_per_s", "navigate, commute", "publish"},
	{"index.sweep_ns_per_target", "ns", "pairs_per_s, stream_pairs_per_s", "commute", "navigate"},
	{"dpgraph.oracle_point_ns", "ns", "lat_p50_us", "navigate, commute", "publish"},
	{"dpgraph.cache_hit_frac", "frac", "pairs_per_s", "commute", "navigate"},
	{"dpgraph.sweep_frac", "frac", "pairs_per_s, stream_pairs_per_s", "commute", "navigate"},
	{"dpgraph.batch_ns_per_pair", "ns", "pairs_per_s", "commute", "navigate"},
	{"snapshot.seal_s", "s", "restore_s, commute setup_s", "publish, commute setup", "navigate"},
	{"snapshot.unseal_s", "s", "restore_s, commute setup_s", "publish, commute setup", "navigate"},
	{"snapshot.mb", "MB", "restore_s, commute setup_s", "publish, commute setup", "navigate"},
	{"serve.point_handler_ns", "ns", "navigate lat_p50_us, rps", "navigate", "publish"},
	{"serve.allocs_per_request", "count", "rps", "navigate", "-"},
	{"serve.handler_share", "frac", "ceiling of any handler gain on lat_p50_us", "navigate", "-"},
	{"serve.batch_ns_per_pair", "ns", "pairs_per_s", "commute", "navigate"},
	{"serve.stream_ns_per_pair", "ns", "stream_pairs_per_s", "commute", "navigate"},
	{"serve.create_s", "s", "publish_s", "publish", "navigate, commute timed phases"},
	{"serve.import_s", "s", "restore_s", "publish", "navigate, commute timed phases"},
	{"cluster.hop_us", "us", "commute lat_p50_us", "commute", "navigate, publish (not on path)"},
	{"cluster.useful_frac", "frac", "commute lat_p50_us, ok_frac", "commute", "-"},
	{"cluster.hedge_frac", "frac", "commute lat_p50_us, ok_frac", "commute", "-"},
	{"cluster.retry_frac", "frac", "commute lat_p50_us, ok_frac", "commute", "-"},
}

// layerInputs is what a workload hands the per-layer measurements: its
// own graphs, served release and query pairs.
type layerInputs struct {
	city, er   network
	kind       string // index the workload serves: "hl" or "ch"
	live       *replica
	rel        string
	snap       []byte
	coord      *coordinator // nil when no coordinator is on the path
	points     []pair
	batches    [][]pair
	stream     [][]pair
	counters   counters
	latSpan    string // client span of the unloaded point phase
	createSpan string // client span of the creates publish_s times
}

// layerSet collects the per-layer metrics of a traced run.
type layerSet struct {
	vals  map[string]float64
	in    layerInputs
	notes []string
}

func newLayerSet() *layerSet { return &layerSet{vals: map[string]float64{}} }

// Caps on how many of the workload's requests the direct calls replay.
const (
	maxDirectPoints  = 20000
	maxDirectBatches = 200
	maxDirectStreams = 40
)

// measure makes the direct calls into each layer with the workload's
// inputs, each under a span, after the workload's timed phases.
func (ls *layerSet) measure(r *run, in layerInputs) error {
	ls.in = in
	tr := r.tracer
	reps := 5
	if r.cfg.smoke {
		reps = 2
	}

	// dp: one noise fill per city edge.
	noise := dp.NewCryptoNoise()
	buf := make([]float64, in.city.g.M())
	var fill []float64
	for i := 0; i < 4*reps; i++ {
		d := tr.timed("dp.FillLaplace", func() { noise.FillLaplace(1, buf) })
		fill = append(fill, nsPer(d, len(buf)))
	}
	ls.vals["dp.fill_ns_per_edge"] = median(fill)

	// dpgraph: an unindexed release of the city.
	var rel *dpgraph.SyntheticGraph
	var relS []float64
	for i := 0; i < reps; i++ {
		pg, err := dpgraph.New(in.city.g, dpgraph.PrivateWeights(in.city.w), dpgraph.WithEpsilon(1))
		if err != nil {
			return err
		}
		var rerr error
		d := tr.timed("dpgraph.Release", func() { rel, rerr = pg.Release() })
		if rerr != nil {
			return rerr
		}
		relS = append(relS, d.Seconds())
	}
	ls.vals["dpgraph.release_s"] = median(relS)

	// index: builds over the released weights.
	w := graph.ClampWeights(rel.Weights, 0, graph.Inf)
	built := map[string]index.Index{}
	for _, b := range []struct {
		metric string
		mode   index.Mode
		key    string
	}{{"index.ch_build_s", index.CH, "ch"}, {"index.hl_build_s", index.HL, "hl"}} {
		var idx index.Index
		var err error
		d := tr.timed("index.Build("+b.key+")", func() { idx, err = index.Build(in.city.g, w, index.Options{Mode: b.mode}) })
		if err != nil {
			return err
		}
		ls.vals[b.metric] = d.Seconds()
		built[b.key] = idx
	}
	pgER, err := dpgraph.New(in.er.g, dpgraph.PrivateWeights(in.er.w), dpgraph.WithEpsilon(1))
	if err != nil {
		return err
	}
	relER, err := pgER.Release()
	if err != nil {
		return err
	}
	wER := graph.ClampWeights(relER.Weights, 0, graph.Inf)
	var autoKind string
	d := tr.timed("index.Build(auto,nonhier)", func() {
		var idx index.Index
		if idx, err = index.Build(in.er.g, wER, index.Options{Mode: index.Auto}); idx != nil {
			autoKind = idx.Kind()
		}
	})
	if err != nil {
		return err
	}
	ls.vals["index.auto_nonhier_build_s"] = d.Seconds()
	ls.notes = append(ls.notes, fmt.Sprintf("auto on the non-hierarchical graph built %q", autoKind))

	idx := built[in.kind]
	points := in.points[:min(len(in.points), maxDirectPoints)]
	var qns []float64
	for i := 0; i < 3; i++ {
		d := tr.timed("index.Distance", func() {
			for _, p := range points {
				idx.Distance(p.s, p.t)
			}
		})
		qns = append(qns, nsPer(d, len(points)))
	}
	ls.vals["index.query_ns"] = median(qns)

	batches := in.batches[:min(len(in.batches), maxDirectBatches)]
	if sw, ok := idx.(index.OneToAll); ok {
		runs := sourceRuns(batches, sw.MinSweepTargets())
		targets := 0
		for _, rn := range runs {
			targets += len(rn.targets)
		}
		out := make([]float64, 0, 1024)
		d := tr.timed("index.DistancesFrom", func() {
			for _, rn := range runs {
				out = slices.Grow(out[:0], len(rn.targets))[:len(rn.targets)]
				sw.DistancesFrom(rn.s, rn.targets, out)
			}
		})
		ls.vals["index.sweep_ns_per_target"] = nsPer(d, targets)
	}

	// dpgraph oracle: fresh unsealed copies of the served release, so the
	// pair cache starts cold and sees the workload's own repeats.
	ref, err := newReference(in.snap)
	if err != nil {
		return err
	}
	d = tr.timed("dpgraph.Oracle.Distance", func() {
		for _, p := range points {
			ref.o.Distance(p.s, p.t) //nolint:errcheck // pairs are in range
		}
	})
	ls.vals["dpgraph.oracle_point_ns"] = nsPer(d, len(points))
	if ref, err = newReference(in.snap); err != nil {
		return err
	}
	var vps [][]dpgraph.VertexPair
	npairs := 0
	for _, b := range batches {
		vp := make([]dpgraph.VertexPair, len(b))
		for i, p := range b {
			vp[i] = dpgraph.VertexPair{S: p.s, T: p.t}
		}
		vps = append(vps, vp)
		npairs += len(b)
	}
	outs := make([]float64, 0, 1024)
	d = tr.timed("dpgraph.Oracle.DistancesInto", func() {
		for _, vp := range vps {
			outs = slices.Grow(outs[:0], len(vp))[:len(vp)]
			ref.o.DistancesInto(vp, outs) //nolint:errcheck // pairs are in range
		}
	})
	ls.vals["dpgraph.batch_ns_per_pair"] = nsPer(d, npairs)
	ls.vals["dpgraph.sweep_frac"] = sweepFrac(in.batches, ref.minSweep)
	ls.vals["dpgraph.cache_hit_frac"] = in.counters.hitFrac()

	// snapshot: seal and unseal the served release.
	sealed, err := dpgraph.Unseal(bytes.NewReader(in.snap))
	if err != nil {
		return err
	}
	var sealS, unsealS []float64
	for i := 0; i < 3; i++ {
		var out bytes.Buffer
		out.Grow(len(in.snap))
		d := tr.timed("dpgraph.Seal", func() { err = dpgraph.Seal(&out, sealed.Oracle(), sealed) })
		if err != nil {
			return err
		}
		sealS = append(sealS, d.Seconds())
		d = tr.timed("dpgraph.Unseal", func() { _, err = dpgraph.Unseal(bytes.NewReader(in.snap)) })
		if err != nil {
			return err
		}
		unsealS = append(unsealS, d.Seconds())
	}
	ls.vals["snapshot.seal_s"] = median(sealS)
	ls.vals["snapshot.unseal_s"] = median(unsealS)
	ls.vals["snapshot.mb"] = float64(len(in.snap)) / 1e6

	// serve: the live daemon's handler, called without a socket.
	if err := ls.measureHandler(r, in, points, batches); err != nil {
		return err
	}

	// cluster: routing counters over the timed phases.
	if c := in.counters; in.coord != nil && c.coordRequests > 0 {
		ls.vals["cluster.useful_frac"] = c.coordRequests / max(c.proxied, 1)
		ls.vals["cluster.hedge_frac"] = c.hedges / c.coordRequests
		ls.vals["cluster.retry_frac"] = c.retry / c.coordRequests
	}
	return nil
}

// nsPer is d in ns per item (0 for no items).
func nsPer(d time.Duration, items int) float64 {
	if items == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(items)
}

// discardWriter is a reusable ResponseWriter that keeps nothing.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (d *discardWriter) Header() http.Header         { return d.h }
func (d *discardWriter) WriteHeader(status int)      { d.status = status }
func (d *discardWriter) Write(b []byte) (int, error) { d.n += len(b); return len(b), nil }

func (ls *layerSet) measureHandler(r *run, in layerInputs, points []pair, batches [][]pair) error {
	h := in.live.s.Handler()
	w := &discardWriter{h: http.Header{}}
	reqs := make([]*http.Request, len(points))
	for i, p := range points {
		req, err := http.NewRequest(http.MethodGet, pointURL("", in.rel, p), nil)
		if err != nil {
			return err
		}
		reqs[i] = req
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d := r.tracer.timed("serve.Handler.point", func() {
		for _, req := range reqs {
			h.ServeHTTP(w, req)
		}
	})
	runtime.ReadMemStats(&after)
	if w.status != http.StatusOK {
		return fmt.Errorf("direct point handler call: status %d", w.status)
	}
	ls.vals["serve.point_handler_ns"] = nsPer(d, len(reqs))
	ls.vals["serve.allocs_per_request"] = float64(after.Mallocs-before.Mallocs) / float64(max(len(reqs), 1))

	post := func(span, path string, bodies [][]byte, pairs int) (float64, error) {
		reqs := make([]*http.Request, len(bodies))
		for i, b := range bodies {
			req, err := http.NewRequest(http.MethodPost, path, nil)
			if err != nil {
				return 0, err
			}
			req.Header.Set("Content-Type", "application/json")
			reqs[i] = req
			reqs[i].Body = io.NopCloser(bytes.NewReader(b))
		}
		d := r.tracer.timed(span, func() {
			for _, req := range reqs {
				h.ServeHTTP(w, req)
			}
		})
		if w.status != http.StatusOK {
			return 0, fmt.Errorf("direct %s call: status %d", span, w.status)
		}
		return nsPer(d, pairs), nil
	}
	var bodies [][]byte
	npairs := 0
	for _, b := range batches {
		bodies = append(bodies, pairsJSON(b))
		npairs += len(b)
	}
	v, err := post("serve.Handler.batch", "/v1/releases/"+in.rel+"/distances", bodies, npairs)
	if err != nil {
		return err
	}
	ls.vals["serve.batch_ns_per_pair"] = v
	bodies, npairs = nil, 0
	for _, s := range in.stream[:min(len(in.stream), maxDirectStreams)] {
		bodies = append(bodies, streamBody(s))
		npairs += len(s)
	}
	v, err = post("serve.Handler.stream", "/v1/releases/"+in.rel+"/distances:stream", bodies, npairs)
	if err != nil {
		return err
	}
	ls.vals["serve.stream_ns_per_pair"] = v
	return nil
}

// sourceRun is one source's deduplicated, sorted targets within a batch,
// and how many of the batch's pairs (repeats included) it answers.
type sourceRun struct {
	s       int
	targets []int
	pairs   int
}

// sourceRuns groups each batch by source, as the oracle's batch path
// does, and keeps the runs the oracle sweeps: those with at least
// minSweep distinct targets.
func sourceRuns(batches [][]pair, minSweep int) []sourceRun {
	var out []sourceRun
	for _, b := range batches {
		bySource := map[int][]int{}
		for _, p := range b {
			bySource[p.s] = append(bySource[p.s], p.t)
		}
		for s, ts := range bySource {
			n := len(ts)
			slices.Sort(ts)
			if ts = slices.Compact(ts); len(ts) >= minSweep {
				out = append(out, sourceRun{s, ts, n})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].s < out[j].s })
	return out
}

// sweepFrac is the share of batch pairs in the source runs the oracle
// sweeps (0 when the index has no one-to-all sweep).
func sweepFrac(batches [][]pair, minSweep int) float64 {
	if minSweep <= 0 {
		return 0
	}
	swept, total := 0, 0
	for _, rn := range sourceRuns(batches, minSweep) {
		swept += rn.pairs
	}
	for _, b := range batches {
		total += len(b)
	}
	return float64(swept) / float64(max(total, 1))
}

// finish derives the span-based metrics once every span is recorded.
func (ls *layerSet) finish(r *run) error {
	tr := r.tracer
	tr.link()
	reqs := tr.byReq()
	var handler, client float64
	var hops []float64
	var creates, imports []float64
	for _, spans := range reqs {
		var cs, coord *span
		var reps []span
		for i := range spans {
			switch s := &spans[i]; {
			case strings.HasPrefix(s.Name, "client."):
				cs = s
			case s.Name == "coordinator":
				coord = s
			case strings.HasPrefix(s.Name, "replica"):
				reps = append(reps, *s)
			}
		}
		if cs == nil {
			continue
		}
		switch cs.Name {
		case ls.in.latSpan:
			client += float64(cs.dur())
			for _, rs := range reps {
				handler += float64(rs.dur())
			}
			if coord != nil {
				hops = append(hops, float64(selfTime(*coord, reps))/1e3)
			}
		case ls.in.createSpan:
			for _, rs := range reps {
				creates = append(creates, float64(rs.dur())/1e9)
			}
		case "client.import":
			for _, rs := range reps {
				imports = append(imports, float64(rs.dur())/1e9)
			}
		}
	}
	if client > 0 {
		ls.vals["serve.handler_share"] = handler / client
	}
	ls.vals["cluster.hop_us"] = median(hops)
	ls.vals["serve.create_s"] = median(creates)
	ls.vals["serve.import_s"] = median(imports)
	return nil
}

// metrics returns every per-layer metric; a layer the workload never
// reaches reads 0.
func (ls *layerSet) metrics() map[string]metric {
	out := map[string]metric{}
	for _, def := range layerDefs {
		out[def.name] = metric{ls.vals[def.name], def.unit}
	}
	return out
}

// e2eOrder lists the end-to-end metrics in report order.
var e2eOrder = []string{"setup_s", "ok_frac", "lat_p50_us", "lat_p99_us", "rps", "pairs_per_s",
	"stream_pairs_per_s", "mem_mb", "publish_s", "publish_nonhier_s", "restore_s", "abs_err_mean"}

// summary renders the per-layer report, the traced end-to-end values
// and the tracing overhead against an untraced run.
func (ls *layerSet) summary(r *run, untraced map[string]metric) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench %s seed=%d seconds=%d: per-layer metrics (traced run)\n", r.cfg.workload, r.cfg.seed, r.cfg.seconds)
	fmt.Fprintf(&b, "%-28s %14s %-6s %-24s %-32s %s\n", "metric", "value", "unit", "does work in", "predicted idle in", "should move")
	for _, def := range layerDefs {
		v := ls.vals[def.name]
		val := fmt.Sprintf("%14.6g", v)
		if v == 0 {
			val = fmt.Sprintf("%14s", "0 (no work)")
		}
		fmt.Fprintf(&b, "%-28s %s %-6s %-24s %-32s %s\n", def.name, val, def.unit, def.work, def.idle, def.moves)
	}
	for _, n := range ls.notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	fmt.Fprintf(&b, "\nend-to-end metrics, traced run vs untraced (tracing overhead = traced - untraced)\n")
	fmt.Fprintf(&b, "%-20s %14s %14s %14s %-5s\n", "metric", "traced", "untraced", "overhead", "unit")
	for _, name := range e2eOrder {
		m, ok := r.e2e[name]
		key := name
		switch {
		case name == "ok_frac" && r.attempted > 0:
			m, ok = metric{float64(r.attempted-r.failed) / float64(r.attempted), "frac"}, true
		case !ok:
			m, ok = r.diag[name]
			key = "diag." + name
		}
		if !ok {
			continue
		}
		base, have := untraced[key]
		if !have {
			fmt.Fprintf(&b, "%-20s %14.6g %14s %14s %-5s\n", name, m.Value, "-", "-", m.Unit)
			continue
		}
		diff := m.Value - base.Value
		pct := ""
		if base.Value != 0 {
			pct = fmt.Sprintf(" (%+.1f%%)", 100*diff/base.Value)
		}
		fmt.Fprintf(&b, "%-20s %14.6g %14.6g %+14.6g %-5s%s\n", name, m.Value, base.Value, diff, m.Unit, pct)
	}
	if untraced == nil {
		fmt.Fprintf(&b, "(no untraced result saved for this workload and seed: run it with --trace 0 first for the overhead column)\n")
	}
	return b.String()
}
