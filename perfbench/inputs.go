package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/dpgraph"
	"repro/internal/graph"
	"repro/internal/traffic"
)

// pair is one s-t query.
type pair struct{ s, t int }

// network is a public topology with its private weights.
type network struct {
	g *graph.Graph
	w []float64
}

// makeCity builds the road network every workload serves: a traffic
// city of the given side with morning rush-hour travel times. It runs
// before any clock starts.
func makeCity(side int, seed int64) (*traffic.City, network, error) {
	rng := rand.New(rand.NewSource(seed))
	city, err := traffic.NewCity(traffic.Config{Side: side}, rng)
	if err != nil {
		return nil, network{}, fmt.Errorf("generating city: %w", err)
	}
	w := city.TravelTimes(traffic.CongestionModel{Hour: 8}, rng)
	return city, network{city.G, w}, nil
}

// makeER builds the non-hierarchical graph: a connected Erdős–Rényi
// graph with mean degree 6, on which contraction degenerates.
func makeER(n int, seed int64) network {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	g := graph.ConnectedErdosRenyi(n, 6/float64(n), rng)
	return network{g, graph.UniformRandomWeights(g, 1, 10, rng)}
}

// uniformPair draws one pair with s != t uniformly from [0, n).
func uniformPair(rng *rand.Rand, n int) pair {
	s, t := rng.Intn(n), rng.Intn(n)
	for t == s {
		t = rng.Intn(n)
	}
	return pair{s, t}
}

// uniformPairs draws k uniform pairs.
func uniformPairs(rng *rand.Rand, n, k int) []pair {
	out := make([]pair, k)
	for i := range out {
		out[i] = uniformPair(rng, n)
	}
	return out
}

// freshPairs draws uniform pairs that never repeat: each pair, in
// either orientation, is handed out at most once, so none can hit the
// pair cache (the oracle answers (t, s) from (s, t)'s entry).
type freshPairs struct {
	rng  *rand.Rand
	n    int
	seen map[uint64]struct{}
}

func newFreshPairs(rng *rand.Rand, n int) *freshPairs {
	return &freshPairs{rng: rng, n: n, seen: map[uint64]struct{}{}}
}

// take draws k pairs none of which was drawn before.
func (f *freshPairs) take(k int) []pair {
	out := make([]pair, k)
	for i := range out {
		for {
			p := uniformPair(f.rng, f.n)
			key := uint64(min(p.s, p.t))*uint64(f.n) + uint64(max(p.s, p.t))
			if _, dup := f.seen[key]; !dup {
				f.seen[key] = struct{}{}
				out[i] = p
				break
			}
		}
	}
	return out
}

// commuteTraffic is the commute workload's endless trip stream. Every
// day the same commuters — hub-bound trips of traffic.CommuteTrips, 4
// hubs — travel home to hub in the morning and hub to home in the
// evening, so the evening half sends same-source runs from each hub and
// every commute pair repeats daily. Errands fill exactly 3 of every 10
// trip slots (CommuteTrips' 30%, without its binomial spread, which
// would move the cache hit fraction from seed to seed) and are fresh
// uniform pairs every day, so they never repeat.
type commuteTraffic struct {
	day  []pair // one day; errand slots hold s = -1
	hubs map[int]bool
	n    int
	rng  *rand.Rand
	pos  int
}

func newCommuteTraffic(city *traffic.City, trips int, rng *rand.Rand) *commuteTraffic {
	morning := city.CommuteTrips(trips+trips/2, 4, rng)
	dest := map[int]int{}
	for _, tr := range morning {
		dest[tr.To]++
	}
	ranked := make([]int, 0, len(dest))
	for v := range dest {
		ranked = append(ranked, v)
	}
	sort.Slice(ranked, func(i, j int) bool {
		return dest[ranked[i]] > dest[ranked[j]] || dest[ranked[i]] == dest[ranked[j]] && ranked[i] < ranked[j]
	})
	hubs := map[int]bool{}
	for _, v := range ranked[:min(4, len(ranked))] {
		hubs[v] = true
	}
	var commuters []traffic.Trip
	for _, tr := range morning {
		if hubs[tr.To] {
			commuters = append(commuters, tr)
		}
	}
	day := make([]pair, 2*trips)
	for i := 0; i < trips; i++ {
		day[i], day[trips+i] = pair{-1, -1}, pair{-1, -1}
		if k := i % 10; k != 2 && k != 5 && k != 8 && len(commuters) > 0 {
			tr := commuters[0]
			commuters = commuters[1:]
			day[i], day[trips+i] = pair{tr.From, tr.To}, pair{tr.To, tr.From}
		}
	}
	return &commuteTraffic{day: day, hubs: hubs, n: city.G.N(), rng: rng}
}

// next returns the stream's following k trips.
func (c *commuteTraffic) next(k int) []pair {
	out := make([]pair, k)
	for i := range out {
		p := c.day[c.pos%len(c.day)]
		if p.s < 0 {
			p = uniformPair(c.rng, c.n)
		}
		out[i] = p
		c.pos++
	}
	return out
}

// absErrMean is the mean |released - true| distance over a fixed pair
// sample from a few fixed-seed library releases on a fixed city. It does
// not depend on the workload seed, so every run of one commit reports
// the same value; the daemons never serve seeded noise.
func absErrMean(side, npairs, releases int, pairsOf func(*traffic.City, *rand.Rand, int) []pair) (float64, error) {
	city, net, err := makeCity(side, 1)
	if err != nil {
		return 0, err
	}
	pairs := pairsOf(city, rand.New(rand.NewSource(2)), npairs)
	vp := make([]dpgraph.VertexPair, len(pairs))
	truth := make([]float64, len(pairs))
	for i, p := range pairs {
		vp[i] = dpgraph.VertexPair{S: p.s, T: p.t}
		if truth[i], err = graph.QueryDistance(net.g, net.w, p.s, p.t); err != nil {
			return 0, err
		}
	}
	var sum float64
	for seed := int64(1); seed <= int64(releases); seed++ {
		pg, err := dpgraph.New(net.g, dpgraph.PrivateWeights(net.w), dpgraph.WithEpsilon(1), dpgraph.WithDeterministicSeed(seed))
		if err != nil {
			return 0, err
		}
		rel, err := pg.Release()
		if err != nil {
			return 0, err
		}
		got, err := rel.Oracle().Distances(vp)
		if err != nil {
			return 0, err
		}
		for i := range got {
			sum += math.Abs(got[i] - truth[i])
		}
	}
	return sum / float64(releases*len(pairs)), nil
}

// uniformSample and commuteSample are the abs_err_mean pair samples.
func uniformSample(city *traffic.City, rng *rand.Rand, k int) []pair {
	return uniformPairs(rng, city.G.N(), k)
}

func commuteSample(city *traffic.City, rng *rand.Rand, k int) []pair {
	return newCommuteTraffic(city, (k+1)/2, rng).next(k)
}
