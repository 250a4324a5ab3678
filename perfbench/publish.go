package main

import (
	"bytes"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// readerCycle is the publish reader's fixed request mix: this many
// point queries, then one batch and one stream request.
const readerCycle = 16

// runPublish is the operator's write path beside reads: while one
// reader queries a live hub-label release on one connection, the
// operator repeatedly creates an "auto" city release, creates an "auto"
// release on the non-hierarchical graph, and imports the sealed
// hub-label snapshot, deleting each afterwards. Index builds, snapshot
// decoding and registry writes dominate, and they share the cores with
// the reader.
func runPublish(r *run) error {
	_, nw, err := makeCity(r.sz.side, r.cfg.seed)
	if err != nil {
		return err
	}
	er := makeER(r.sz.erN, r.cfg.seed)
	rng := rand.New(rand.NewSource(r.cfg.seed))
	firsts := uniformPairs(rng, nw.g.N(), r.sz.setups+r.sz.operations)
	perRound := (r.sz.restores + r.sz.operations - 1) / r.sz.operations
	restoreFirsts := uniformPairs(rng, nw.g.N(), r.sz.operations*perRound)
	if err := r.absErr(uniformSample); err != nil {
		return err
	}

	r.logf("inputs ready")
	cl := r.newClient(1)
	base := heapMB()

	// Set-up: boot the city and graph daemons and publish the live
	// hub-label release, up to its first answer; repeated, the last one
	// stays up.
	var setupS []float64
	var city, erRep *replica
	for i := 0; i < r.sz.setups; i++ {
		settle()
		t0 := time.Now()
		rc, err := r.startReplica("replica", nw)
		if err != nil {
			return err
		}
		re, err := r.startReplica("replica-er", er)
		if err != nil {
			rc.stop()
			return err
		}
		stopBoth := func() { re.stop(); rc.stop() }
		if _, err := cl.createRelease(rc.url, releaseName, "hl"); err != nil {
			stopBoth()
			return err
		}
		v, err := cl.point(rc.url, releaseName, firsts[i])
		if err != nil {
			stopBoth()
			return err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if i < r.sz.setups-1 {
			err := r.verifyFirst(cl, rc.url, releaseName, firsts[i], v)
			stopBoth()
			if err != nil {
				return err
			}
			continue
		}
		city, erRep = rc, re
		r.onClose(stopBoth)
		r.set("mem_mb", heapMB()-base, "MB")
		if err := r.verifyFirst(cl, rc.url, releaseName, firsts[i], v); err != nil {
			return err
		}
	}
	r.logf("set-up %v", setupS)
	r.set("setup_s", median(setupS), "s")
	snap, err := cl.snapshot(city.url, releaseName)
	if err != nil {
		return err
	}
	ref, err := newReference(snap)
	if err != nil {
		return err
	}

	// The reader runs until the operator is done.
	before, err := readCounters(cl, nil, city)
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var rd reader
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rd.loop(r.newClient(1), city.url, nw.g.N(), r.sz.batch, r.sz.stream, r.cfg.seed, stop)
	}()

	var publishS, nonhierS, restoreS []float64
	opErr := func() error {
		for i := 0; i < r.sz.operations; i++ {
			p := firsts[r.sz.setups+i]
			settle()
			d, err := cl.createRelease(city.url, "auto", "auto")
			if err != nil {
				return err
			}
			publishS = append(publishS, d.Seconds())
			v, err := cl.point(city.url, "auto", p)
			if err != nil {
				return err
			}
			if err := r.verifyFirst(cl, city.url, "auto", p, v); err != nil {
				return err
			}
			if err := cl.deleteRelease(city.url, "auto"); err != nil {
				return err
			}

			nh, err := r.nonhierCreates(cl, erRep, er.g.N(), 1, rng)
			if err != nil {
				return err
			}
			nonhierS = append(nonhierS, nh...)

			rs, err := r.restores(cl, city, snap, ref, restoreFirsts[i*perRound:(i+1)*perRound])
			if err != nil {
				return err
			}
			restoreS = append(restoreS, rs...)
		}
		return nil
	}()
	close(stop)
	wg.Wait()
	if opErr != nil {
		return opErr
	}
	r.logf("operator done: publish %v, non-hierarchical %v, restore %v; reader sent %d requests", publishS, nonhierS, restoreS, len(rd.reqs))
	r.set("publish_s", median(publishS), "s")
	r.set("publish_nonhier_s", median(nonhierS), "s")
	r.set("restore_s", median(restoreS), "s")

	if rd.err != nil {
		return rd.err
	}
	r.tallyAll(len(rd.reqs), func(i int) bool { return rd.reqs[i].check(ref) })
	// The reader's figures pool its whole run, which spans every kind of
	// operator work (a window median flips between, say, reads beside a
	// contraction and reads beside an import). One connection's
	// throughput is items over the time spent on them.
	p50, p99 := latencyStats(rd.lat[kindPoint])
	r.set("lat_p50_us", p50, "us")
	r.note("lat_p99_us", p99, "us")
	r.set("rps", perSecond(len(rd.lat[kindPoint]), rd.lat[kindPoint]), "1/s")
	r.set("pairs_per_s", perSecond(len(rd.lat[kindBatch])*r.sz.batch, rd.lat[kindBatch]), "1/s")
	r.set("stream_pairs_per_s", perSecond(len(rd.lat[kindStream])*r.sz.stream, rd.lat[kindStream]), "1/s")

	if r.layers != nil {
		after, err := readCounters(cl, nil, city)
		if err != nil {
			return err
		}
		var points []pair
		var batches, streams [][]pair
		for _, q := range rd.reqs {
			switch q.kind {
			case kindPoint:
				points = append(points, q.pairs...)
			case kindBatch:
				batches = append(batches, q.pairs)
			case kindStream:
				streams = append(streams, q.pairs)
			}
		}
		return r.layers.measure(r, layerInputs{
			city: nw, er: er, kind: "hl", live: city, rel: releaseName, snap: snap,
			points: points, batches: batches, stream: streams,
			counters: after.minus(before), latSpan: "client.read.point", createSpan: "client.create.auto",
		})
	}
	return nil
}

// Reader request kinds.
const (
	kindPoint = iota
	kindBatch
	kindStream
)

// readerReq is one request the reader sent and what came back.
type readerReq struct {
	kind  int
	pairs []pair
	ok    bool
	got   []float64
}

func (q readerReq) check(ref *reference) bool {
	if !q.ok {
		return false
	}
	if q.kind == kindPoint {
		return len(q.got) == 1 && ref.matches(q.pairs[0], q.got[0])
	}
	return ref.checkBatch(q.pairs, q.got)
}

// reader is publish's closed-loop reader: one connection cycling
// through point, batch and stream requests of fresh uniform pairs.
type reader struct {
	reqs []readerReq
	lat  [3][]int64
	err  error
}

func (rd *reader) loop(cl *client, base string, n, batch, stream int, seed int64, stop <-chan struct{}) {
	rng := rand.New(rand.NewSource(seed ^ 0x7ead))
	pointBase := base + "/v1/releases/" + releaseName
	var buf bytes.Buffer
	for k := 0; ; k++ {
		select {
		case <-stop:
			return
		default:
		}
		q := readerReq{kind: kindPoint}
		var method, url, name string
		var body []byte
		switch k % readerCycle {
		case readerCycle - 2:
			q.kind, q.pairs = kindBatch, uniformPairs(rng, n, batch)
			method, url, name, body = http.MethodPost, pointBase+"/distances", "read.batch", pairsJSON(q.pairs)
		case readerCycle - 1:
			q.kind, q.pairs = kindStream, uniformPairs(rng, n, stream)
			method, url, name, body = http.MethodPost, pointBase+"/distances:stream", "read.stream", streamBody(q.pairs)
		default:
			q.pairs = uniformPairs(rng, n, 1)
			method, url, name = http.MethodGet, pointURL(base, releaseName, q.pairs[0]), "read.point"
		}
		t0 := time.Now()
		status, err := cl.do(name, method, url, body, &buf)
		rd.lat[q.kind] = append(rd.lat[q.kind], int64(time.Since(t0)))
		if err != nil {
			rd.err = err
			return
		}
		q.ok = status == http.StatusOK
		q.got = scanValues(buf.Bytes(), make([]float64, 0, len(q.pairs)))
		rd.reqs = append(rd.reqs, q)
	}
}

// perSecond is items per second of time spent in lat (ns).
func perSecond(items int, lat []int64) float64 {
	var s int64
	for _, l := range lat {
		s += l
	}
	if s == 0 {
		return 0
	}
	return float64(items) / (float64(s) / 1e9)
}
