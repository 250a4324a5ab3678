package main

import (
	"math/rand"
	"time"
)

// tripShares measures the timed pairs' exact-repeat share (the pair, in
// either orientation, was sent before) and hub-endpoint share.
func tripShares(hubs map[int]bool, before, timed []pair) (repeat, hub float64) {
	key := func(p pair) pair { return pair{min(p.s, p.t), max(p.s, p.t)} }
	seen := map[pair]bool{}
	for _, p := range before {
		seen[key(p)] = true
	}
	repeats, withHub := 0, 0
	for _, p := range timed {
		if seen[key(p)] {
			repeats++
		}
		seen[key(p)] = true
		if hubs[p.s] || hubs[p.t] {
			withHub++
		}
	}
	n := float64(max(len(timed), 1))
	return float64(repeats) / n, float64(withHub) / n
}

func flatten(reqs [][]pair) []pair {
	var out []pair
	for _, ps := range reqs {
		out = append(out, ps...)
	}
	return out
}

// warmDays is commute's warm-up length in days of trips. Each replica
// caches only the pairs routed to it, and with two connections racing
// which batch reaches which replica, a short warm-up leaves the timed
// phase's hit fraction to chance (replaying whole days after a one-day
// warm-up: 0.830-0.842 across runs; after four days, 0.542-0.550);
// after six, both replicas hold nearly every commute pair, so almost
// only the never-repeating errands miss.
const warmDays = 6

// runCommute is the matrix/dispatch path: rush-hour trips sent through
// a cluster coordinator to two serve replicas holding one
// contraction-hierarchy release (replica A creates it, replica B imports
// A's sealed snapshot). Batches contain same-source runs from the hubs,
// which the replicas answer with one-to-all sweeps, and the daily
// replay of the same commuters' pairs exercises the pair cache. It
// bypasses hub labels.
func runCommute(r *run) error {
	city, nw, err := makeCity(r.sz.side, r.cfg.seed)
	if err != nil {
		return err
	}
	er := makeER(r.sz.erN, r.cfg.seed)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	trips := newCommuteTraffic(city, r.count(2000), rng)
	warmReqs := chunk(trips.next(warmDays*len(trips.day)), r.sz.batch)
	batchReqs := chunk(trips.next(r.count(90)*r.sz.batch), r.sz.batch)
	streamReqs := chunk(trips.next(r.count(12)*r.sz.stream), r.sz.stream)
	latPairs := trips.next(r.count(1000))
	rpsPairs := trips.next(r.count(2000))
	setupFirsts := uniformPairs(rng, nw.g.N(), 2*r.sz.setups)
	restoreFirsts := uniformPairs(rng, nw.g.N(), r.sz.restores)
	repeat, hub := tripShares(trips.hubs, flatten(warmReqs), flatten(batchReqs))
	r.logf("timed batch pairs: %.3f exact repeats (either orientation), %.3f with a hub endpoint", repeat, hub)
	if err := r.absErr(commuteSample); err != nil {
		return err
	}

	r.logf("inputs ready")
	cl := r.newClient(procs())
	base := heapMB()

	// Set-up: two replicas, a CH release created on A, sealed and
	// imported into B, and a coordinator over both, up to the first
	// answer through the coordinator. The first cluster stays up and
	// serves the timed phases; the repeats run between windows, on
	// clusters of their own.
	var setupS, publishS []float64
	type pool struct {
		a, b  *replica
		coord *coordinator
	}
	stop := func(c pool) {
		if c.coord != nil {
			c.coord.stop()
		}
		if c.b != nil {
			c.b.stop()
		}
		c.a.stop()
	}
	setup := func(i int) (pool, error) {
		settle()
		var c pool
		t0 := time.Now()
		var err error
		if c.a, err = r.startReplica("replica-a", nw); err != nil {
			return c, err
		}
		fail := func(err error) (pool, error) {
			stop(c)
			return c, err
		}
		if c.b, err = r.startReplica("replica-b", nw); err != nil {
			return fail(err)
		}
		d, err := cl.createRelease(c.a.url, releaseName, "ch")
		if err != nil {
			return fail(err)
		}
		snap, err := cl.snapshot(c.a.url, releaseName)
		if err != nil {
			return fail(err)
		}
		if err := cl.importRelease(c.b.url, releaseName, snap); err != nil {
			return fail(err)
		}
		vb, err := cl.point(c.b.url, releaseName, setupFirsts[2*i])
		if err != nil {
			return fail(err)
		}
		if c.coord, err = r.startCoordinator(c.a, c.b); err != nil {
			return fail(err)
		}
		v, err := cl.point(c.coord.url, releaseName, setupFirsts[2*i+1])
		if err != nil {
			return fail(err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		publishS = append(publishS, d.Seconds())
		ref, err := newReference(snap)
		if err != nil {
			return fail(err)
		}
		r.tally(ref.matches(setupFirsts[2*i], vb))
		r.tally(ref.matches(setupFirsts[2*i+1], v))
		return c, nil
	}
	live, err := setup(0)
	if err != nil {
		return err
	}
	r.onClose(func() { stop(live) })
	a, b, coord := live.a, live.b, live.coord
	r.set("mem_mb", heapMB()-base, "MB")
	// The reference is replica A's own snapshot, which B also serves.
	snap, err := cl.snapshot(a.url, releaseName)
	if err != nil {
		return err
	}
	ref, err := newReference(snap)
	if err != nil {
		return err
	}
	erRep, err := r.startReplica("replica-er", er)
	if err != nil {
		return err
	}
	r.onClose(erRep.stop)
	repeats := make([]int, r.sz.setups-1)
	for i := range repeats {
		repeats[i] = i + 1
	}

	// Warm-up: whole days of trips, so the timed phases see the steady
	// daily replay. After each timed window come its share of the
	// one-shot repeats.
	r.batches(cl, "batch.warm", coord.url, releaseName, warmReqs, procs(), ref)
	// The batch windows' cache counters are summed on their own: the
	// hit fraction of the timed batch phase is the steady-state guard.
	var lat, rps, bat, str series
	var batchCache counters
	var restoreS, nonhierS []float64
	before, err := readCounters(cl, coord, a, b)
	if err != nil {
		return err
	}
	for w := 0; w < windows; w++ {
		settle()
		bs := part(batchReqs, w)
		c0, err := readCounters(cl, nil, a, b)
		if err != nil {
			return err
		}
		bat.addRate(len(bs)*r.sz.batch, r.batches(cl, "batch", coord.url, releaseName, bs, procs(), ref))
		c1, err := readCounters(cl, nil, a, b)
		if err != nil {
			return err
		}
		d := c1.minus(c0)
		batchCache.cacheHits += d.cacheHits
		batchCache.cacheMisses += d.cacheMisses
		ss := part(streamReqs, w)
		str.addRate(len(ss)*r.sz.stream, r.streams(cl, "stream", coord.url, releaseName, ss, procs(), ref))
		lat.addLatency(r.points(cl, "point.lat", coord.url, releaseName, part(latPairs, w), 1, ref))
		ps := part(rpsPairs, w)
		rps.addRate(len(ps), r.points(cl, "point.rps", coord.url, releaseName, ps, procs(), ref))

		for _, i := range part(repeats, w) {
			c, err := setup(i)
			if err != nil {
				return err
			}
			stop(c)
		}
		rs, err := r.restores(cl, b, snap, ref, part(restoreFirsts, w))
		if err != nil {
			return err
		}
		restoreS = append(restoreS, rs...)
		nh, err := r.nonhierCreates(cl, erRep, er.g.N(), spread(r.sz.nonhier, w), rng)
		if err != nil {
			return err
		}
		nonhierS = append(nonhierS, nh...)
	}
	after, err := readCounters(cl, coord, a, b)
	if err != nil {
		return err
	}
	r.logf("set-up %v", setupS)
	r.logf("restores %v, non-hierarchical creates %v", restoreS, nonhierS)
	r.set("setup_s", median(setupS), "s")
	r.set("publish_s", median(publishS), "s")
	r.set("restore_s", median(restoreS), "s")
	r.set("publish_nonhier_s", median(nonhierS), "s")
	r.logf("phases done: window pairs/s %.0f; batch hit fraction %.4f", bat.rate, batchCache.hitFrac())
	// Windows sit at different times of the commute day (hub-bound
	// mornings, hub-sourced evenings), so the figures pool them.
	p50, p99 := latencyStats(lat.lat)
	r.set("lat_p50_us", p50, "us")
	r.note("lat_p99_us", p99, "us")
	r.set("rps", rps.totalRate(), "1/s")
	r.set("pairs_per_s", bat.totalRate(), "1/s")
	r.set("stream_pairs_per_s", str.totalRate(), "1/s")

	if r.layers != nil {
		all := after.minus(before)
		all.cacheHits, all.cacheMisses = batchCache.cacheHits, batchCache.cacheMisses
		return r.layers.measure(r, layerInputs{
			city: nw, er: er, kind: "ch", live: a, rel: releaseName, snap: snap, coord: coord,
			points: latPairs, batches: batchReqs, stream: streamReqs,
			counters: all, latSpan: "client.point.lat", createSpan: "client.create.ch",
		})
	}
	return nil
}
