package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/traffic"
)

// releaseName is the live release every workload serves.
const releaseName = "city"

// counters are the daemon counters read around the timed phases.
type counters struct {
	cacheHits, cacheMisses                float64
	coordRequests, proxied, hedges, retry float64
}

func (c counters) minus(o counters) counters {
	return counters{c.cacheHits - o.cacheHits, c.cacheMisses - o.cacheMisses,
		c.coordRequests - o.coordRequests, c.proxied - o.proxied, c.hedges - o.hedges, c.retry - o.retry}
}

// readCounters sums the replicas' cache counters of the served release,
// which one-shot repeats on other releases leave alone, and reads the
// coordinator's routing counters (coord may be nil).
func readCounters(cl *client, coord *coordinator, reps ...*replica) (counters, error) {
	var c counters
	for _, rep := range reps {
		m, err := cl.counters(rep.url)
		if err != nil {
			return c, err
		}
		c.cacheHits += num(m, "releases", releaseName, "cache_hits")
		c.cacheMisses += num(m, "releases", releaseName, "cache_misses")
	}
	if coord != nil {
		m, err := cl.counters(coord.url)
		if err != nil {
			return c, err
		}
		c.coordRequests = num(m, "requests")
		c.proxied = num(m, "proxied_attempts")
		c.hedges = num(m, "hedges")
		c.retry = num(m, "retries")
	}
	return c, nil
}

func (c counters) hitFrac() float64 {
	if c.cacheHits+c.cacheMisses == 0 {
		return 0
	}
	return c.cacheHits / (c.cacheHits + c.cacheMisses)
}

// verifyFirst checks a release's first answer against the release's own
// sealed snapshot.
func (r *run) verifyFirst(cl *client, base, name string, p pair, got float64) error {
	snap, err := cl.snapshot(base, name)
	if err != nil {
		return err
	}
	ref, err := newReference(snap)
	if err != nil {
		return err
	}
	r.tally(ref.matches(p, got))
	return nil
}

// nonhierCreates publishes "auto" releases on the non-hierarchical
// graph, where contraction degenerates and Auto falls back to ALT, and
// returns each create's request-to-ready time.
func (r *run) nonhierCreates(cl *client, rep *replica, n, rounds int, rng *rand.Rand) ([]float64, error) {
	var out []float64
	for i := 0; i < rounds; i++ {
		settle()
		d, err := cl.createRelease(rep.url, "nonhier", "auto")
		if err != nil {
			return nil, err
		}
		out = append(out, d.Seconds())
		p := uniformPairs(rng, n, 1)[0]
		v, err := cl.point(rep.url, "nonhier", p)
		if err != nil {
			return nil, err
		}
		if err := r.verifyFirst(cl, rep.url, "nonhier", p, v); err != nil {
			return nil, err
		}
		if err := cl.deleteRelease(rep.url, "nonhier"); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// restores imports a sealed snapshot into a running daemon under fresh
// names, once per first pair, each up to its first answer, and returns
// those times.
func (r *run) restores(cl *client, rep *replica, snap []byte, ref *reference, firsts []pair) ([]float64, error) {
	var out []float64
	for i := range firsts {
		name := fmt.Sprintf("restore%d", i)
		settle()
		t0 := time.Now()
		if err := cl.importRelease(rep.url, name, snap); err != nil {
			return nil, err
		}
		v, err := cl.point(rep.url, name, firsts[i])
		if err != nil {
			return nil, err
		}
		out = append(out, time.Since(t0).Seconds())
		r.tally(ref.matches(firsts[i], v))
		if err := cl.deleteRelease(rep.url, name); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// absErr sets abs_err_mean for the workload's pair shape.
func (r *run) absErr(shape func(*traffic.City, *rand.Rand, int) []pair) error {
	v, err := absErrMean(r.sz.absSide, r.sz.absPairs, r.sz.absSeeds, shape)
	if err != nil {
		return err
	}
	r.set("abs_err_mean", v, "min")
	return nil
}

// settle collects garbage before a timed one-shot, so each repeat
// starts from the same heap state.
func settle() { runtime.GC() }
