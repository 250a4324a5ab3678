package main

import (
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The closed loops every workload is built from. Each runs a fixed
// list of requests, keeps the answers, and checks every one of them
// against the reference after the loop, off the clock.

// points runs point queries over pairs on conns connections.
func (r *run) points(cl *client, name, base, rel string, pairs []pair, conns int, ref *reference) phaseStats {
	urls := make([]string, len(pairs))
	for i, p := range pairs {
		urls[i] = pointURL(base, rel, p)
	}
	got := make([]float64, len(pairs))
	ok := make([]bool, len(pairs))
	st := cl.run(phase{
		name: name, conns: conns, n: len(pairs), method: http.MethodGet,
		url: func(i int) string { return urls[i] },
		onResp: func(i, status int, body []byte) {
			var one [1]float64
			vals := scanValues(body, one[:0])
			ok[i] = status == http.StatusOK && len(vals) == 1
			if ok[i] {
				got[i] = vals[0]
			}
		},
	})
	r.tallyAll(len(pairs), func(i int) bool { return ok[i] && ref.matches(pairs[i], got[i]) })
	return st
}

// batches runs POST .../distances requests, one JSON pair array each.
func (r *run) batches(cl *client, name, base, rel string, reqs [][]pair, conns int, ref *reference) phaseStats {
	return r.posts(cl, name, base+"/v1/releases/"+rel+"/distances", reqs, pairsJSON, conns, ref)
}

// streams runs POST .../distances:stream requests, one "s t" line per
// pair, each answered line by line as the server's mini-batches fill.
func (r *run) streams(cl *client, name, base, rel string, reqs [][]pair, conns int, ref *reference) phaseStats {
	return r.posts(cl, name, base+"/v1/releases/"+rel+"/distances:stream", reqs, streamBody, conns, ref)
}

// posts runs one POST per request, its pairs encoded as the endpoint
// wants, and checks every answered pair.
func (r *run) posts(cl *client, name, url string, reqs [][]pair, encode func([]pair) []byte, conns int, ref *reference) phaseStats {
	bodies := make([][]byte, len(reqs))
	for i, ps := range reqs {
		bodies[i] = encode(ps)
	}
	got := make([][]float64, len(reqs))
	ok := make([]bool, len(reqs))
	st := cl.run(phase{
		name: name, conns: conns, n: len(reqs), method: http.MethodPost,
		url:  func(int) string { return url },
		body: func(i int) []byte { return bodies[i] },
		onResp: func(i, status int, body []byte) {
			got[i] = scanValues(body, make([]float64, 0, len(reqs[i])))
			ok[i] = status == http.StatusOK
		},
	})
	r.tallyAll(len(reqs), func(i int) bool { return ok[i] && ref.checkBatch(reqs[i], got[i]) })
	return st
}

// tallyAll checks n answers on every core and tallies them in order.
func (r *run) tallyAll(n int, check func(i int) bool) {
	res := make([]bool, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				res[i] = check(i)
			}
		}()
	}
	wg.Wait()
	for _, ok := range res {
		r.tally(ok)
	}
}

func pairsJSON(ps []pair) []byte {
	b := []byte{'['}
	for i, p := range ps {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(p.s), 10)
		b = append(b, ',')
		b = strconv.AppendInt(b, int64(p.t), 10)
		b = append(b, ']')
	}
	return append(b, ']')
}

// streamBody is one "s t" text line per pair.
func streamBody(ps []pair) []byte {
	var b []byte
	for _, p := range ps {
		b = strconv.AppendInt(b, int64(p.s), 10)
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(p.t), 10)
		b = append(b, '\n')
	}
	return b
}

// chunk splits pairs into consecutive requests of size k.
func chunk(pairs []pair, k int) [][]pair {
	var out [][]pair
	for len(pairs) > 0 {
		n := min(k, len(pairs))
		out = append(out, pairs[:n])
		pairs = pairs[n:]
	}
	return out
}

// windows is how many equal windows each timed phase is split into.
// The phases of a workload run interleaved, window by window, and each
// metric is the median over its windows, so a burst of interference
// from outside the process spoils one window of every phase rather than
// a whole phase.
const windows = 10

// part is window w of xs.
func part[T any](xs []T, w int) []T {
	return xs[w*len(xs)/windows : (w+1)*len(xs)/windows]
}

// spread is how many of k one-shot repeats run after window w: they are
// spaced evenly over the run, so slow drift of the host moves them and
// the timed windows alike.
func spread(k, w int) int { return (w+1)*k/windows - w*k/windows }

// series collects one phase's per-window results. Where every window
// sends the same kind of traffic, the median over windows is the
// phase's figure; where windows differ by design (commute's day of
// trips), the pooled totals are.
type series struct {
	p50, p99, rate []float64
	lat            []int64 // every window's latencies
	items          int
	wall           time.Duration
}

func (s *series) addLatency(st phaseStats) {
	if len(st.lat) == 0 {
		return
	}
	p50, p99 := latencyStats(st.lat)
	s.p50 = append(s.p50, p50)
	s.p99 = append(s.p99, p99)
	s.lat = append(s.lat, st.lat...)
}

func (s *series) addRate(items int, st phaseStats) {
	if items > 0 {
		s.rate = append(s.rate, float64(items)/st.wall.Seconds())
		s.items += items
		s.wall += st.wall
	}
}

// totalRate is all windows' items over all windows' time.
func (s *series) totalRate() float64 { return float64(s.items) / s.wall.Seconds() }

// latencyStats returns the p50 and p99 of ns latencies, in µs.
func latencyStats(lat []int64) (p50, p99 float64) {
	s := slices.Clone(lat)
	slices.Sort(s)
	return quantile(s, 0.50) / 1e3, quantile(s, 0.99) / 1e3
}
