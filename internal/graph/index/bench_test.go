package index

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/perfguard"
)

// benchGraph is the ≥100k-edge grid the serving benchmarks run on
// (2 * 225 * 224 = 100,800 edges).
func benchGraph(tb testing.TB) (*graph.Graph, []float64) {
	tb.Helper()
	g := graph.Grid(225)
	rng := rand.New(rand.NewSource(1))
	return g, graph.UniformRandomWeights(g, 0.5, 2.5, rng)
}

func BenchmarkBuild(b *testing.B) {
	g, w := benchGraph(b)
	for _, m := range []Mode{CH, ALT, HL} {
		b.Run(m.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Build(g, w, Options{Mode: m}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// distanceOp warms idx's workspace pool and returns one point query
// per call, walking a fixed scrambled pair sequence.
func distanceOp(idx Index) func() {
	n := idx.N()
	idx.Distance(0, n-1)
	i := 0
	return func() {
		idx.Distance((i*7919)%n, (i*104729+1)%n)
		i++
	}
}

func BenchmarkIndexDistance(b *testing.B) {
	g, w := benchGraph(b)
	n := g.N()
	b.Run("dijkstra", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := graph.QueryDistanceTrusted(g, w, (i*7919)%n, (i*104729+1)%n); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, m := range []Mode{CH, ALT, HL} {
		idx, err := Build(g, w, Options{Mode: m})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(m.String(), func(b *testing.B) { perfguard.Bench(b, distanceOp(idx)) })
	}
}

// oneToManyOps returns a 512-target repeated-source batch answered two
// ways, one batch per call: per-pair point queries, and one PHAST
// one-to-all sweep gathering the same targets. Both warm their
// workspace pools first.
func oneToManyOps(ch OneToAll) (perPair, phast func()) {
	n := ch.N()
	const fanout = 512
	targets := make([]int, fanout)
	for i := range targets {
		targets[i] = (i*7919 + 13) % n
	}
	out := make([]float64, fanout)
	ch.Distance(0, n-1)
	ch.DistancesFrom(0, targets, out)
	var i, j int
	perPair = func() {
		s := (i * 104729) % n
		for k, t := range targets {
			out[k] = ch.Distance(s, t)
		}
		i++
	}
	phast = func() {
		ch.DistancesFrom((j*104729)%n, targets, out)
		j++
	}
	return perPair, phast
}

// BenchmarkIndexOneToMany compares a repeated-source batch answered by
// per-pair CH queries against one PHAST one-to-all sweep gathering the
// same targets. TestHubLabelAndPHASTSpeedup asserts the sweep is >= 3x
// faster per batch; TestIndexQueryZeroAlloc holds it allocation-free.
func BenchmarkIndexOneToMany(b *testing.B) {
	g, w := benchGraph(b)
	idx, err := Build(g, w, Options{Mode: CH})
	if err != nil {
		b.Fatal(err)
	}
	perPair, phast := oneToManyOps(idx.(OneToAll))
	b.Run("ch-perpair", func(b *testing.B) { perfguard.Bench(b, perPair) })
	b.Run("phast", func(b *testing.B) { perfguard.Bench(b, phast) })
}
