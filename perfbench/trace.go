package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Req is the id of the
// client span that started the request (0 for direct layer calls).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps every span of a traced run in memory until the run ends.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

// now is the monotonic offset from the tracer's start, in ns.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// timed records a span around a direct call into a layer.
func (t *tracer) timed(name string, f func()) time.Duration {
	start := t.now()
	f()
	end := t.now()
	t.record(span{ID: t.newID(), Name: name, Start: start, End: end})
	return time.Duration(end - start)
}

// wrap records a span around every request a daemon's handler serves.
// The request's span key names the client span that caused it; the
// coordinator forwards the query string unchanged, so a replica span
// carries the same key and is linked to its coordinator span later.
func (t *tracer) wrap(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := t.now()
		h.ServeHTTP(w, r)
		end := t.now()
		req := spanKey(r.URL.RawQuery)
		t.record(span{ID: t.newID(), Parent: req, Req: req, Name: name, Start: start, End: end})
	})
}

// spanKey extracts the span=<id> query key (0 when absent).
func spanKey(raw string) uint64 {
	for raw != "" {
		var seg string
		seg, raw, _ = strings.Cut(raw, "&")
		if v, ok := strings.CutPrefix(seg, "span="); ok {
			id, _ := strconv.ParseUint(v, 10, 64)
			return id
		}
	}
	return 0
}

// link resolves replica spans' parents: a replica span whose request
// went through the coordinator is a child of that coordinator span.
func (t *tracer) link() {
	coordOf := map[uint64]uint64{}
	for _, s := range t.spans {
		if s.Name == "coordinator" && s.Req != 0 {
			coordOf[s.Req] = s.ID
		}
	}
	for i, s := range t.spans {
		if strings.HasPrefix(s.Name, "replica") {
			if c, ok := coordOf[s.Req]; ok {
				t.spans[i].Parent = c
			}
		}
	}
}

// byReq groups the spans of each request under its client span id.
func (t *tracer) byReq() map[uint64][]span {
	out := map[uint64][]span{}
	for _, s := range t.spans {
		if s.Req != 0 {
			out[s.Req] = append(out[s.Req], s)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(parent span, children []span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64 = 0, parent.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return parent.dur() - covered
}

// writeSpans writes one JSON span per line.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
