package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/dpgraph"
	"repro/internal/cluster"
	"repro/internal/serve"
)

// daemon is one HTTP server of the benchmark, listening on a loopback
// port in this process.
type daemon struct {
	name string
	url  string
	srv  *http.Server
	done chan struct{}
}

// listen serves h on a fresh loopback port, wrapped in a span recorder
// when the run is traced.
func (r *run) listen(name string, h http.Handler) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	if r.tracer != nil {
		h = r.tracer.wrap(name, h)
	}
	d := &daemon{name: name, url: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(d.done)
		d.srv.Serve(ln) //nolint:errcheck // returns ErrServerClosed on stop
	}()
	return d, nil
}

// stop shuts the server down and waits for it to exit.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if d.srv.Shutdown(ctx) != nil {
		d.srv.Close()
	}
	<-d.done
}

// replica is one serve daemon.
type replica struct {
	*daemon
	s *serve.Server
}

// startReplica boots a serve daemon over the network's private weights.
func (r *run) startReplica(name string, nw network) (*replica, error) {
	s := serve.New(nw.g, nw.w, serve.Config{})
	d, err := r.listen(name, s.Handler())
	if err != nil {
		return nil, err
	}
	return &replica{d, s}, nil
}

// coordinator is a cluster coordinator daemon over a replica pool.
type coordinator struct {
	*daemon
	c *cluster.Coordinator
}

func (r *run) startCoordinator(replicas ...*replica) (*coordinator, error) {
	urls := make([]string, len(replicas))
	for i, rep := range replicas {
		urls[i] = rep.url
	}
	c, err := cluster.New(cluster.Config{Replicas: urls})
	if err != nil {
		return nil, err
	}
	c.Start()
	d, err := r.listen("coordinator", c.Handler())
	if err != nil {
		c.Stop()
		return nil, err
	}
	return &coordinator{d, c}, nil
}

func (c *coordinator) stop() {
	c.daemon.stop()
	c.c.Stop()
}

// client is a closed-loop HTTP client with a fixed connection pool.
type client struct {
	hc     *http.Client
	tracer *tracer
}

func (r *run) newClient(conns int) *client {
	tr := &http.Transport{
		MaxIdleConns:        conns,
		MaxIdleConnsPerHost: conns,
		MaxConnsPerHost:     conns,
		IdleConnTimeout:     time.Minute,
		DisableCompression:  true,
	}
	c := &client{hc: &http.Client{Transport: tr}, tracer: r.tracer}
	r.onClose(tr.CloseIdleConnections)
	return c
}

// do sends one request and reads the whole response into buf. Traced
// runs add a span key to the URL and record the client span; its id is
// the request id every downstream span carries.
func (c *client) do(name, method, url string, body []byte, buf *bytes.Buffer) (int, error) {
	var id uint64
	var start int64
	if c.tracer != nil {
		id = c.tracer.newID()
		url = withSpan(url, id)
		start = c.tracer.now()
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, err
	}
	if len(body) > 0 && (body[0] == '[' || body[0] == '{') {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if c.tracer != nil {
		c.tracer.record(span{ID: id, Req: id, Name: "client." + name, Start: start, End: c.tracer.now()})
	}
	return resp.StatusCode, err
}

// call is do with a private buffer, for one-off operator requests.
func (c *client) call(name, method, url string, body []byte) (int, []byte, error) {
	var buf bytes.Buffer
	status, err := c.do(name, method, url, body, &buf)
	return status, buf.Bytes(), err
}

func withSpan(url string, id uint64) string {
	sep := "?"
	if strings.IndexByte(url, '?') >= 0 {
		sep = "&"
	}
	return url + sep + "span=" + strconv.FormatUint(id, 10)
}

// createRelease materializes a "release" (synthetic graph) mechanism
// release under the given index mode and returns the request's duration.
func (c *client) createRelease(base, name, index string) (time.Duration, error) {
	body := fmt.Sprintf(`{"name":%q,"mechanism":"release","epsilon":1,"index":%q}`, name, index)
	op := "create." + index
	if name == "nonhier" {
		op = "create.nonhier"
	}
	t0 := time.Now()
	status, resp, err := c.call(op, http.MethodPost, base+"/v1/releases", []byte(body))
	d := time.Since(t0)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("create %s: status %d: %s", name, status, resp)
	}
	return d, err
}

// importRelease uploads a sealed snapshot under name.
func (c *client) importRelease(base, name string, snap []byte) error {
	status, resp, err := c.call("import", http.MethodPost, base+"/v1/releases/"+name+":import", snap)
	if err == nil && status != http.StatusCreated {
		err = fmt.Errorf("import %s: status %d: %s", name, status, resp)
	}
	return err
}

// snapshot downloads a release's sealed snapshot.
func (c *client) snapshot(base, name string) ([]byte, error) {
	status, resp, err := c.call("snapshot", http.MethodGet, base+"/v1/releases/"+name+"/snapshot", nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("snapshot %s: status %d", name, status)
	}
	return resp, err
}

// deleteRelease unregisters a release.
func (c *client) deleteRelease(base, name string) error {
	status, resp, err := c.call("delete", http.MethodDelete, base+"/v1/releases/"+name, nil)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("delete %s: status %d: %s", name, status, resp)
	}
	return err
}

// point answers one s-t query.
func (c *client) point(base, name string, p pair) (float64, error) {
	status, resp, err := c.call("first", http.MethodGet, pointURL(base, name, p), nil)
	if err != nil {
		return 0, err
	}
	if status != http.StatusOK {
		return 0, fmt.Errorf("point query: status %d: %s", status, resp)
	}
	vals := scanValues(resp, nil)
	if len(vals) != 1 {
		return 0, fmt.Errorf("point query: %d values in %q", len(vals), resp)
	}
	return vals[0], nil
}

func pointURL(base, name string, p pair) string {
	return base + "/v1/releases/" + name + "/distance?s=" + strconv.Itoa(p.s) + "&t=" + strconv.Itoa(p.t)
}

// counters reads a daemon's /metrics JSON.
func (c *client) counters(base string) (map[string]any, error) {
	status, resp, err := c.call("metrics", http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", status)
	}
	var m map[string]any
	return m, json.Unmarshal(resp, &m)
}

// num digs a number out of decoded JSON by key path (0 when absent).
func num(m map[string]any, path ...string) float64 {
	var cur any = m
	for _, k := range path {
		obj, ok := cur.(map[string]any)
		if !ok {
			return 0
		}
		cur = obj[k]
	}
	f, _ := cur.(float64)
	return f
}

var valueKey = []byte(`"value":`)

// scanValues appends every answered distance in a point, batch or
// stream response to dst, in order; null (unreachable) reads as +Inf.
func scanValues(b []byte, dst []float64) []float64 {
	for {
		i := bytes.Index(b, valueKey)
		if i < 0 {
			return dst
		}
		b = b[i+len(valueKey):]
		j := bytes.IndexAny(b, ",}")
		if j <= 0 {
			return dst
		}
		tok := b[:j]
		if string(tok) == "null" {
			dst = append(dst, math.Inf(1))
			continue
		}
		v, err := strconv.ParseFloat(unsafe.String(&tok[0], len(tok)), 64)
		if err != nil {
			v = math.NaN()
		}
		dst = append(dst, v)
	}
}

// reference is the oracle answers are checked against: the serving
// daemon's own sealed snapshot, unsealed in the benchmark process.
type reference struct {
	o        dpgraph.BatchOracle
	minSweep int
}

func newReference(snap []byte) (*reference, error) {
	sealed, err := dpgraph.Unseal(bytes.NewReader(snap))
	if err != nil {
		return nil, fmt.Errorf("unsealing reference: %w", err)
	}
	o, ok := sealed.Oracle().(dpgraph.BatchOracle)
	if !ok {
		return nil, fmt.Errorf("reference oracle has no batch entry")
	}
	if referenceHook != nil {
		o = referenceHook(o)
	}
	ref := &reference{o: o}
	if ms, ok := o.(interface{ MinSweepTargets() int }); ok {
		ref.minSweep = ms.MinSweepTargets()
	}
	return ref, nil
}

// referenceHook, when set, wraps every reference oracle; the
// benchmark's test uses it to plant a wrong reference answer.
var referenceHook func(dpgraph.BatchOracle) dpgraph.BatchOracle

// matches reports whether got is, bit for bit, one of the two exact
// answers the release's index gives for (s, t): its point query, or —
// for indexes with a one-to-all sweep, which sums the same path in
// another order — its sweep from s. Which of the two a server uses
// depends on how a stream's lines happen to batch up.
func (ref *reference) matches(p pair, got float64) bool {
	want, err := ref.o.Distance(p.s, p.t)
	if err != nil {
		return false
	}
	if math.Float64bits(want) == math.Float64bits(got) {
		return true
	}
	if ref.minSweep == 0 {
		return false
	}
	pairs := []dpgraph.VertexPair{{S: p.s, T: p.t}}
	for v := 0; len(pairs) < ref.minSweep+1 && v < ref.o.N(); v++ {
		if v != p.t {
			pairs = append(pairs, dpgraph.VertexPair{S: p.s, T: v})
		}
	}
	out := make([]float64, len(pairs))
	if ref.o.DistancesInto(pairs, out) != nil {
		return false
	}
	return math.Float64bits(out[0]) == math.Float64bits(got)
}

// checkBatch compares a batch answer against the reference's answer to
// the same batch, which takes the same per-source code paths.
func (ref *reference) checkBatch(pairs []pair, got []float64) bool {
	if len(got) != len(pairs) {
		return false
	}
	vp := make([]dpgraph.VertexPair, len(pairs))
	for i, p := range pairs {
		vp[i] = dpgraph.VertexPair{S: p.s, T: p.t}
	}
	want := make([]float64, len(pairs))
	if ref.o.DistancesInto(vp, want) != nil {
		return false
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) && !ref.matches(pairs[i], got[i]) {
			return false
		}
	}
	return true
}

// phase is one closed loop: conns workers each send their next request
// as soon as the previous one is answered, until n requests are done.
type phase struct {
	name   string // span name
	conns  int
	n      int
	method string
	url    func(i int) string
	body   func(i int) []byte // nil for GET
	// onResp runs after the latency clock stops; it parses and stores
	// the answer of request i.
	onResp func(i, status int, body []byte)
}

// phaseStats is what one closed loop measured.
type phaseStats struct {
	lat  []int64 // per-request latency, ns, in request order
	wall time.Duration
}

// run executes the phase on the client's connections.
func (c *client) run(p phase) phaseStats {
	st := phaseStats{lat: make([]int64, p.n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < p.conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= p.n {
					return
				}
				var body []byte
				if p.body != nil {
					body = p.body(i)
				}
				t0 := time.Now()
				status, err := c.do(p.name, p.method, p.url(i), body, &buf)
				st.lat[i] = int64(time.Since(t0))
				if err != nil {
					status = 0
				}
				p.onResp(i, status, buf.Bytes())
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}
