package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/dpgraph"
	"repro/internal/perfguard"
)

// benchServer materializes one seeded release over a Grid(side) and
// returns the handler plus the direct oracle for the overhead
// comparison.
func benchServer(tb testing.TB, side int, index string) (http.Handler, dpgraph.DistanceOracle, int) {
	tb.Helper()
	g := dpgraph.Grid(side)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%7)
	}
	spec := dpgraph.ReleaseSpec{Mechanism: "release", Seed: 42, Index: index}
	oracle, _, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		tb.Fatal(err)
	}
	s := New(g, w, Config{})
	rel, err := s.reg.reserve("bench", spec, 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	// Serve the exact oracle being measured directly, so the two
	// sub-benchmarks differ only by the HTTP layer.
	rel.oracle, rel.result = oracle, stubResult{}
	close(rel.ready)
	return s.Handler(), oracle, g.N()
}

// pointOps returns the same point query answered two ways, one per
// call, cycling over 64 fixed pairs on a Grid(60) release (3,600
// vertices: a query costs enough to dominate transport): the oracle
// called directly, and the full HTTP handler (request parse, admission,
// JSON response) in front of it.
func pointOps(tb testing.TB, index string) (direct, served func()) {
	handler, oracle, n := benchServer(tb, 60, index)
	pairs := make([][2]int, 64)
	for i := range pairs {
		pairs[i] = [2]int{(i * 131) % n, (i*257 + n/2) % n}
	}
	var i, j int
	direct = func() {
		p := pairs[i%len(pairs)]
		i++
		if _, err := oracle.Distance(p[0], p[1]); err != nil {
			tb.Fatal(err)
		}
	}
	served = func() {
		p := pairs[j%len(pairs)]
		j++
		req := httptest.NewRequest("GET", fmt.Sprintf("/v1/releases/bench/distance?s=%d&t=%d", p[0], p[1]), nil)
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	return direct, served
}

// BenchmarkServeDistance compares a point distance query answered
// through the HTTP handler against the same oracle called directly,
// once per index mode so unindexed, CH, and hub-label serving are told
// apart. TestServeOverhead bounds the direct/http gap on the unindexed
// oracle.
func BenchmarkServeDistance(b *testing.B) {
	for _, mode := range []string{"off", "ch", "hl"} {
		b.Run(mode, func(b *testing.B) {
			direct, served := pointOps(b, mode)
			b.Run("direct", func(b *testing.B) { perfguard.Bench(b, direct) })
			b.Run("http", func(b *testing.B) { perfguard.Bench(b, served) })
		})
	}
}

// BenchmarkServeDistanceCoalesced pits concurrent same-source point
// queries against a CH-indexed release with the sweep coalescer off and
// on. The parallelism is forced well past GOMAXPROCS so the coalescer
// has waiters to merge even on a single-core runner; the "pairs/batch"
// and "shared-frac" metrics report how much sharing it achieved.
func BenchmarkServeDistanceCoalesced(b *testing.B) {
	const side = 60
	g := dpgraph.Grid(side)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%7)
	}
	spec := dpgraph.ReleaseSpec{Mechanism: "release", Seed: 42, Index: "ch"}
	oracle, result, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	for _, co := range []bool{false, true} {
		name := "off"
		if co {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			var cfg Config
			if co {
				cfg = Config{CoalesceWindow: 200 * time.Microsecond, CoalesceMaxPending: 64}
			}
			s := New(g, w, cfg)
			rel, err := s.reg.reserve("bench", spec, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			s.publish(rel, oracle, result, nil)
			handler := s.Handler()

			b.SetParallelism(32) // force waiters to overlap even on one core
			b.ReportAllocs()
			b.ResetTimer()
			var seq atomic.Int64
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					t := int(seq.Add(1)) % n
					req := httptest.NewRequest("GET", fmt.Sprintf("/v1/releases/bench/distance?s=0&t=%d", t), nil)
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						b.Fatalf("status %d: %s", rec.Code, rec.Body)
					}
				}
			})
			b.StopTimer()
			if co {
				m := &rel.metrics
				total := m.coalesceShared.Load() + m.coalesceSolo.Load()
				if batches := m.coalesceBatches.Load(); batches > 0 && total > 0 {
					b.ReportMetric(float64(total)/float64(batches), "pairs/batch")
					b.ReportMetric(float64(m.coalesceShared.Load())/float64(total), "shared-frac")
				}
			}
		})
	}
}

// BenchmarkServeBatch measures the batch endpoint's per-pair cost with
// a 256-pair body, the shape a throughput-oriented client sends.
func BenchmarkServeBatch(b *testing.B) {
	handler, _, n := benchServer(b, 60, "")
	var body strings.Builder
	body.WriteString("[")
	for i := 0; i < 256; i++ {
		if i > 0 {
			body.WriteString(",")
		}
		fmt.Fprintf(&body, "[%d,%d]", (i*131)%n, (i*257+n/2)%n)
	}
	body.WriteString("]")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		req := httptest.NewRequest("POST", "/v1/releases/bench/distances", strings.NewReader(body.String()))
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
}
