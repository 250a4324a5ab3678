// Package repro's root benchmarks regenerate every experiment indexed in
// EXPERIMENTS.md (one Benchmark per table/figure). Each benchmark
// iteration runs the experiment's full Quick sweep, so ns/op measures the
// cost of regenerating that table. Run the full-size tables with
// cmd/experiments instead:
//
//	go test -bench=. -benchmem            # all experiments, quick sweeps
//	go run ./cmd/experiments              # full-size tables
//
// The BenchmarkMechanism*/BenchmarkOracle* group at the bottom measures
// the serving split instead: an eager budget-charging mechanism call per
// query versus queries answered from one materialized release's
// DistanceOracle (see EXPERIMENTS.md, "Serving benchmarks"), and the
// BenchmarkFillLaplace/BenchmarkParallelRelease group measures release
// throughput through the vectorized NoiseSource layer (EXPERIMENTS.md,
// E19): block sampling per draw, and a >= 1M-edge ReleaseGraph on the
// serial versus the GOMAXPROCS-sharded crypto path.
package repro_test

import (
	"bytes"
	"testing"

	"repro/dpgraph"
	"repro/internal/core"
	"repro/internal/dp"
	"repro/internal/experiment"
	"repro/internal/graph"
	"repro/internal/perfguard"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, ok := experiment.Get(id)
	if !ok {
		b.Fatalf("experiment %s not registered", id)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab, err := e.Run(experiment.Config{Seed: int64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// Theorem 4.1 / Algorithm 1: single-source tree distances.
func BenchmarkE01_TreeSingleSource(b *testing.B) { benchExperiment(b, "E1") }

// Theorem 4.2: all-pairs tree distances.
func BenchmarkE02_TreeAllPairs(b *testing.B) { benchExperiment(b, "E2") }

// Theorem A.1: path-graph hub hierarchy.
func BenchmarkE03_PathHierarchy(b *testing.B) { benchExperiment(b, "E3") }

// Theorems 4.5 + 4.3 / Algorithm 2: bounded-weight graphs, approximate DP.
func BenchmarkE04_BoundedWeightApprox(b *testing.B) { benchExperiment(b, "E4") }

// Theorems 4.6 + 4.3: bounded-weight graphs, pure DP.
func BenchmarkE05_BoundedWeightPure(b *testing.B) { benchExperiment(b, "E5") }

// Theorem 4.7: grid coverings.
func BenchmarkE06_GridCovering(b *testing.B) { benchExperiment(b, "E6") }

// Theorem 5.5 / Algorithm 3: path error vs hop count.
func BenchmarkE07_PathErrorVsHops(b *testing.B) { benchExperiment(b, "E7") }

// Corollary 5.6: worst-case path error.
func BenchmarkE08_PathErrorWorstCase(b *testing.B) { benchExperiment(b, "E8") }

// Theorem 5.1 / Lemma 5.2: shortest-path reconstruction attack.
func BenchmarkE09_PathReconstruction(b *testing.B) { benchExperiment(b, "E9") }

// Theorem B.3: private almost-minimum spanning tree.
func BenchmarkE10_PrivateMST(b *testing.B) { benchExperiment(b, "E10") }

// Theorem B.1 / Lemma B.2: MST reconstruction attack.
func BenchmarkE11_MSTReconstruction(b *testing.B) { benchExperiment(b, "E11") }

// Theorem B.6: private low-weight perfect matching.
func BenchmarkE12_PrivateMatching(b *testing.B) { benchExperiment(b, "E12") }

// Theorem B.4 / Lemma B.5: matching reconstruction attack.
func BenchmarkE13_MatchingReconstruction(b *testing.B) { benchExperiment(b, "E13") }

// Section 1.1 motivation: private navigation on a synthetic city.
func BenchmarkE14_TrafficNavigation(b *testing.B) { benchExperiment(b, "E14") }

// Section 1.2: error vs influence scale.
func BenchmarkE15_SensitivityScaling(b *testing.B) { benchExperiment(b, "E15") }

// Lemma 4.4 ablation: covering construction quality.
func BenchmarkE16_CoveringAblation(b *testing.B) { benchExperiment(b, "E16") }

// Remark after Theorem 4.6: single-source release strategies.
func BenchmarkE17_SingleSource(b *testing.B) { benchExperiment(b, "E17") }

// Appendix A / [DNPR10]: continual counter equals path distances.
func BenchmarkE18_ContinualCounter(b *testing.B) { benchExperiment(b, "E18") }

// Figure 1: Algorithm 1 tree partition.
func BenchmarkF01_TreePartition(b *testing.B) { benchExperiment(b, "F1") }

// Figure 2: shortest-path lower-bound gadget.
func BenchmarkF02_PathGadget(b *testing.B) { benchExperiment(b, "F2") }

// Figure 3: MST and matching lower-bound gadgets.
func BenchmarkF03_MSTMatchingGadgets(b *testing.B) { benchExperiment(b, "F3") }

// --- Serving benchmarks: release once / query many ---------------------
//
// BenchmarkMechanismDistance is the eager path (one budget-charging
// mechanism call per answered query); the BenchmarkOracleDistance
// sub-benchmarks answer the same query from a materialized release's
// DistanceOracle. The tree/hierarchy/table oracles must report
// 0 allocs/op; TestOracleDistanceZeroAlloc holds them to it.

func benchSession(tb testing.TB, g *dpgraph.Graph) *dpgraph.PrivateGraph {
	tb.Helper()
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%7)/7
	}
	pg, err := dpgraph.New(g, dpgraph.PrivateWeights(w),
		dpgraph.WithEpsilon(1), dpgraph.WithDeterministicSeed(1))
	if err != nil {
		tb.Fatal(err)
	}
	return pg
}

// BenchmarkMechanismDistance answers each query with a fresh Laplace
// mechanism call: every iteration pays a budget charge, a receipt
// append, and a full shortest-path computation.
func BenchmarkMechanismDistance(b *testing.B) {
	g := dpgraph.Grid(16)
	pg := benchSession(b, g)
	n := g.N()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pg.Distance(i%n, (i*13+1)%n); err != nil {
			b.Fatal(err)
		}
	}
}

// pairStream yields vertex pairs s < t in a scrambled order that visits
// every unordered pair once before any repeats: a golden-ratio Weyl
// sequence over the n*n ordered pairs, skipping s >= t. No run shorter
// than n(n-1)/2 queries asks a pair twice in either orientation, so a
// result cache never answers and a benchmark times the oracle itself.
type pairStream struct{ n, m, step, p uint64 }

func newPairStream(n int) *pairStream {
	m := uint64(n) * uint64(n)
	step := uint64(float64(m) * 0.6180339887498949)
	for gcd(step, m) != 1 {
		step++
	}
	return &pairStream{n: uint64(n), m: m, step: step}
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func (ps *pairStream) next() (s, t int) {
	for {
		ps.p = (ps.p + ps.step) % ps.m
		if s, t := ps.p/ps.n, ps.p%ps.n; s < t {
			return int(s), int(t)
		}
	}
}

// warmOracle answers one query so o's pools are warm before timing,
// and returns o.N().
func warmOracle(tb testing.TB, o dpgraph.DistanceOracle) int {
	tb.Helper()
	n := o.N()
	if _, err := o.Distance(0, n-1); err != nil {
		tb.Fatal(err)
	}
	return n
}

// oracleDistanceOp warms o's pools and returns one point query per
// call, each on the next pair of a fresh pairStream, for the indexed
// oracles whose PairCache would otherwise answer repeats.
func oracleDistanceOp(tb testing.TB, o dpgraph.DistanceOracle) func() {
	warmOracle(tb, o)
	ps := newPairStream(o.N())
	return func() {
		if _, err := o.Distance(ps.next()); err != nil {
			tb.Fatal(err)
		}
	}
}

// lookupDistanceOp warms o's pools and returns one point query per
// call on the pair (i%n, (i*13+1)%n). The lookup oracles (tableOracles)
// keep no result cache, so repeats time the lookup itself, and the pair
// costs two divisions where pairStream costs several per draw.
func lookupDistanceOp(tb testing.TB, o dpgraph.DistanceOracle) func() {
	n, i := warmOracle(tb, o), 0
	return func() {
		if _, err := o.Distance(i%n, (i*13+1)%n); err != nil {
			tb.Fatal(err)
		}
		i++
	}
}

// tableOracles build the precomputed-release families whose point
// queries must not allocate.
var tableOracles = []struct {
	name  string
	build func(tb testing.TB) dpgraph.DistanceOracle
}{
	{"tree", func(tb testing.TB) dpgraph.DistanceOracle {
		rel, err := benchSession(tb, dpgraph.BalancedBinaryTree(1023)).TreeAllPairs()
		if err != nil {
			tb.Fatal(err)
		}
		return rel.Oracle()
	}},
	{"hierarchy", func(tb testing.TB) dpgraph.DistanceOracle {
		rel, err := benchSession(tb, dpgraph.PathGraph(1024)).PathHierarchy(2)
		if err != nil {
			tb.Fatal(err)
		}
		return rel.Oracle()
	}},
	{"table", func(tb testing.TB) dpgraph.DistanceOracle {
		rel, err := benchSession(tb, dpgraph.Grid(16)).AllPairsDistances()
		if err != nil {
			tb.Fatal(err)
		}
		return rel.Oracle()
	}},
}

// gridOracle serves a release over Grid(side) through the given query
// index.
func gridOracle(tb testing.TB, side int, mode dpgraph.QueryIndexMode) dpgraph.DistanceOracle {
	tb.Helper()
	rel, err := benchSession(tb, dpgraph.Grid(side)).Release()
	if err != nil {
		tb.Fatal(err)
	}
	oracle, err := rel.IndexedOracle(mode)
	if err != nil {
		tb.Fatal(err)
	}
	return oracle
}

func BenchmarkOracleDistance(b *testing.B) {
	for _, f := range tableOracles {
		b.Run(f.name, func(b *testing.B) { perfguard.Bench(b, lookupDistanceOp(b, f.build(b))) })
	}
	b.Run("synthetic", func(b *testing.B) { perfguard.Bench(b, oracleDistanceOp(b, gridOracle(b, 16, dpgraph.IndexOff))) })
	// The indexed-serving group: one >= 100k-edge release (Grid(225)
	// has 2*225*224 = 100,800 edges) served unindexed (per-query
	// Dijkstra) versus through the contraction-hierarchy, landmark, and
	// hub-label indexes. TestIndexedOracleSpeedup holds the CH oracle to
	// >= 10x the unindexed one.
	for _, mode := range []dpgraph.QueryIndexMode{dpgraph.IndexOff, dpgraph.IndexCH, dpgraph.IndexALT, dpgraph.IndexHL} {
		name := "synthetic-100k"
		if mode != dpgraph.IndexOff {
			name += "-" + mode.String()
		}
		b.Run(name, func(b *testing.B) { perfguard.Bench(b, oracleDistanceOp(b, gridOracle(b, 225, mode))) })
	}
}

// --- Throughput benchmarks: the vectorized noise layer -----------------
//
// BenchmarkFillLaplace measures the block sampler per draw; the
// crypto-serial and seeded samplers must not allocate
// (TestFillLaplaceZeroAlloc). The crypto sub-benchmark takes the
// sharded parallel path when GOMAXPROCS > 1.

func BenchmarkFillLaplace(b *testing.B) {
	sources := []struct {
		name string
		src  dp.NoiseSource
	}{
		{"crypto-serial", dp.NewSerialCryptoNoise()},
		{"crypto", dp.NewCryptoNoise()},
		{"seeded", dp.NewSeededNoise(1)},
	}
	dst := make([]float64, 1<<16)
	for _, s := range sources {
		b.Run(s.name, func(b *testing.B) {
			b.SetBytes(8 << 16)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.src.FillLaplace(1, dst)
			}
		})
	}
}

// releaseOp returns one eps-DP synthetic weight release over a
// 1,001,112-edge grid per call, drawing noise from a fresh src().
func releaseOp(tb testing.TB, src func() dp.NoiseSource) func() {
	tb.Helper()
	g := graph.Grid(708) // 2*708*707 = 1,001,112 edges
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%7)
	}
	return func() {
		rel, err := core.ReleaseGraph(g, w, core.Options{Epsilon: 1, Noise: src()})
		if err != nil {
			tb.Fatal(err)
		}
		if len(rel.Weights) != g.M() {
			tb.Fatal("short release")
		}
	}
}

// BenchmarkParallelRelease materializes a release per iteration. The
// serial sub-benchmark pins the single-threaded crypto sampler; the
// parallel one lets FillLaplace shard across GOMAXPROCS workers, which
// is how crypto-mode sessions run in production. On one core the two
// coincide; at GOMAXPROCS >= 8 TestParallelReleaseSpeedup asserts a
// >= 4x wall-clock win.
func BenchmarkParallelRelease(b *testing.B) {
	b.Run("serial", func(b *testing.B) { perfguard.Bench(b, releaseOp(b, dp.NewSerialCryptoNoise)) })
	b.Run("parallel", func(b *testing.B) { perfguard.Bench(b, releaseOp(b, dp.NewCryptoNoise)) })
}

// --- Snapshot benchmarks: sealed-release restore ------------------------

// restoreOps returns the two ways a replica can start serving the same
// >= 100k-edge CH-indexed release: re-materializing it from the private
// weights (budget charge + noise + contraction hierarchy) versus
// unsealing a snapshot artifact (decode + index rehydration, zero
// budget). Both end with one answered query, so their cost is the
// restore-to-first-answer latency. sealed is the artifact size.
func restoreOps(tb testing.TB) (rematerialize, unseal func(), sealed int) {
	tb.Helper()
	g := dpgraph.Grid(225) // 2*225*224 = 100,800 edges
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%7)/7
	}
	materialize := func() (dpgraph.DistanceOracle, dpgraph.Result) {
		pg, err := dpgraph.New(g, dpgraph.PrivateWeights(w),
			dpgraph.WithEpsilon(1), dpgraph.WithDeterministicSeed(1))
		if err != nil {
			tb.Fatal(err)
		}
		rel, err := pg.Release()
		if err != nil {
			tb.Fatal(err)
		}
		oracle, err := rel.IndexedOracle(dpgraph.IndexCH)
		if err != nil {
			tb.Fatal(err)
		}
		return oracle, rel
	}
	firstQuery := func(o dpgraph.DistanceOracle) {
		if _, err := o.Distance(0, g.N()-1); err != nil {
			tb.Fatal(err)
		}
	}
	oracle, rel := materialize()
	var buf bytes.Buffer
	if err := dpgraph.Seal(&buf, oracle, rel); err != nil {
		tb.Fatal(err)
	}
	data := buf.Bytes()
	rematerialize = func() {
		oracle, _ := materialize()
		firstQuery(oracle)
	}
	unseal = func() {
		sealed, err := dpgraph.Unseal(bytes.NewReader(data))
		if err != nil {
			tb.Fatal(err)
		}
		firstQuery(sealed.Oracle())
	}
	return rematerialize, unseal, len(data)
}

// BenchmarkSnapshotRestore times both restoreOps paths;
// TestSnapshotRestoreSpeedup asserts unseal is >= 50x faster.
func BenchmarkSnapshotRestore(b *testing.B) {
	rematerialize, unseal, sealed := restoreOps(b)
	b.Run("rematerialize", func(b *testing.B) { perfguard.Bench(b, rematerialize) })
	b.Run("unseal", func(b *testing.B) {
		b.SetBytes(int64(sealed))
		perfguard.Bench(b, unseal)
	})
}

// BenchmarkOracleBatch answers a 256-pair workload per iteration through
// the batch interface (the synthetic oracle groups the batch by source).
func BenchmarkOracleBatch(b *testing.B) {
	families := []struct {
		name   string
		oracle func(tb testing.TB) dpgraph.DistanceOracle
	}{
		{"tree", tableOracles[0].build},
		{"synthetic", func(tb testing.TB) dpgraph.DistanceOracle { return gridOracle(tb, 16, dpgraph.IndexOff) }},
	}
	for _, f := range families {
		b.Run(f.name, func(b *testing.B) {
			o := f.oracle(b)
			n := o.N()
			pairs := make([]dpgraph.VertexPair, 256)
			for i := range pairs {
				pairs[i] = dpgraph.VertexPair{S: (i * 31) % n, T: (i*17 + 3) % n}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := o.Distances(pairs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
