package main

import (
	"math/rand"
	"time"
)

// runNavigate is the app-user path: uniform random point queries, each
// pair drawn fresh and never replayed, against one daemon serving a
// hub-label city release, plus batch and stream clients of the same
// kind. It bypasses the pair cache, one-to-all sweeps and the
// coordinator.
func runNavigate(r *run) error {
	_, nw, err := makeCity(r.sz.side, r.cfg.seed)
	if err != nil {
		return err
	}
	er := makeER(r.sz.erN, r.cfg.seed)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	n := nw.g.N()
	fresh := newFreshPairs(rng, n)
	warm := fresh.take(r.count(100))
	latPairs := fresh.take(r.count(3000))
	rpsPairs := fresh.take(r.count(10000))
	batchReqs := chunk(fresh.take(r.count(700)*r.sz.batch), r.sz.batch)
	streamReqs := chunk(fresh.take(r.count(180)*r.sz.stream), r.sz.stream)
	fresh = nil // its set of drawn pairs goes before any clock starts
	setupFirsts := uniformPairs(rng, n, r.sz.setups)
	restoreFirsts := uniformPairs(rng, n, r.sz.restores)
	if err := r.absErr(uniformSample); err != nil {
		return err
	}

	r.logf("inputs ready")
	cl := r.newClient(procs())
	base := heapMB()

	// Set-up: boot a daemon and publish the hub-label release, up to the
	// first answered query. The first daemon stays up and serves the
	// timed phases; the repeats run between windows, on daemons of their
	// own.
	var setupS, publishS []float64
	setup := func(p pair) (*replica, float64, error) {
		settle()
		t0 := time.Now()
		rep, err := r.startReplica("replica", nw)
		if err != nil {
			return nil, 0, err
		}
		d, err := cl.createRelease(rep.url, releaseName, "hl")
		if err != nil {
			rep.stop()
			return nil, 0, err
		}
		v, err := cl.point(rep.url, releaseName, p)
		if err != nil {
			rep.stop()
			return nil, 0, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		publishS = append(publishS, d.Seconds())
		return rep, v, nil
	}
	live, v, err := setup(setupFirsts[0])
	if err != nil {
		return err
	}
	r.onClose(live.stop)
	r.set("mem_mb", heapMB()-base, "MB")
	if err := r.verifyFirst(cl, live.url, releaseName, setupFirsts[0], v); err != nil {
		return err
	}
	snap, err := cl.snapshot(live.url, releaseName)
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

	// Timed phases, each a fixed count after a fixed warm-up; after each
	// window, its share of the one-shot repeats.
	r.points(cl, "point.warm", live.url, releaseName, warm, 1, ref)
	before, err := readCounters(cl, nil, live)
	if err != nil {
		return err
	}
	var lat, rps, bat, str series
	var restoreS, nonhierS []float64
	for w := 0; w < windows; w++ {
		settle()
		lat.addLatency(r.points(cl, "point.lat", live.url, releaseName, part(latPairs, w), 1, ref))
		ps := part(rpsPairs, w)
		rps.addRate(len(ps), r.points(cl, "point.rps", live.url, releaseName, ps, procs(), ref))
		bs := part(batchReqs, w)
		bat.addRate(len(bs)*r.sz.batch, r.batches(cl, "batch", live.url, releaseName, bs, procs(), ref))
		ss := part(streamReqs, w)
		str.addRate(len(ss)*r.sz.stream, r.streams(cl, "stream", live.url, releaseName, ss, procs(), ref))

		for _, p := range part(setupFirsts[1:], w) {
			rep, v, err := setup(p)
			if err != nil {
				return err
			}
			err = r.verifyFirst(cl, rep.url, releaseName, p, v)
			rep.stop()
			if err != nil {
				return err
			}
		}
		rs, err := r.restores(cl, live, snap, ref, part(restoreFirsts, w))
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
	after, err := readCounters(cl, nil, live)
	if err != nil {
		return err
	}
	r.logf("set-up %v", setupS)
	r.logf("restores %v, non-hierarchical creates %v", restoreS, nonhierS)
	r.logf("phases done: window rps %.0f", rps.rate)
	r.set("setup_s", median(setupS), "s")
	r.set("publish_s", median(publishS), "s")
	r.set("restore_s", median(restoreS), "s")
	r.set("publish_nonhier_s", median(nonhierS), "s")
	r.set("lat_p50_us", median(lat.p50), "us")
	r.note("lat_p99_us", median(lat.p99), "us")
	r.set("rps", median(rps.rate), "1/s")
	r.set("pairs_per_s", median(bat.rate), "1/s")
	r.set("stream_pairs_per_s", median(str.rate), "1/s")
	delta := after.minus(before)
	if h := delta.hitFrac(); h >= 0.01 {
		r.violate("navigate pair-cache hit fraction %.4f, want < 0.01: pairs must never repeat", h)
	}

	if r.layers != nil {
		return r.layers.measure(r, layerInputs{
			city: nw, er: er, kind: "hl", live: live, rel: releaseName, snap: snap,
			points: latPairs, batches: batchReqs, stream: streamReqs,
			counters: delta, latSpan: "client.point.lat", createSpan: "client.create.hl",
		})
	}
	return nil
}
