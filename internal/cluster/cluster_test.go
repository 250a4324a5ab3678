package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/dpgraph"
	"repro/internal/serve"
)

// Fault modes a test replica can be flipped into mid-load. Everything
// including /readyz is affected, so a faulted replica looks exactly
// like a sick or dead process to the coordinator's prober.
const (
	modeOK   = "ok"
	mode500  = "500"  // every request answers 500
	modeHang = "hang" // every request blocks until its context dies
	modeKill = "kill" // every connection is severed mid-request (process killed)
)

// testReplica is one in-process `serve` daemon behind a fault switch.
type testReplica struct {
	ts   *httptest.Server
	mode atomic.Value
}

func (r *testReplica) set(mode string) { r.mode.Store(mode) }
func (r *testReplica) url() string     { return r.ts.URL }

// fleetGraph is the shared test topology and private weights.
func fleetGraph() (*dpgraph.Graph, []float64) {
	g := dpgraph.Grid(4)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 1 + float64(i%4)
	}
	return g, w
}

const fleetReleaseSpec = `{"name":"main","mechanism":"release","epsilon":2,"seed":7}`

// newTestFleet boots n replicas all serving the identical seeded
// release "main" (identical seed, so bit-identical released values —
// the single-node oracle from fleetOracle is ground truth for every
// replica), each behind a fault switch starting at modeOK.
func newTestFleet(t *testing.T, n int) []*testReplica {
	t.Helper()
	g, w := fleetGraph()
	fleet := make([]*testReplica, n)
	for i := range fleet {
		s := serve.New(g, w, serve.Config{AllowSeeded: true})
		inner := s.Handler()
		rep := &testReplica{}
		rep.mode.Store(modeOK)
		rep.ts = httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
			switch rep.mode.Load() {
			case mode500:
				http.Error(wr, "injected failure", http.StatusInternalServerError)
			case modeHang:
				<-r.Context().Done()
			case modeKill:
				panic(http.ErrAbortHandler)
			default:
				inner.ServeHTTP(wr, r)
			}
		}))
		t.Cleanup(rep.ts.Close)
		// Heal before close so hung handlers never stall cleanup.
		t.Cleanup(func() { rep.set(modeOK) })
		resp, err := http.Post(rep.ts.URL+"/v1/releases", "application/json", strings.NewReader(fleetReleaseSpec))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("replica %d: create release status %d", i, resp.StatusCode)
		}
		fleet[i] = rep
	}
	return fleet
}

// fleetOracle materializes the same seeded release locally: the
// single-node ground truth every proxied answer must equal.
func fleetOracle(t *testing.T) dpgraph.DistanceOracle {
	t.Helper()
	g, w := fleetGraph()
	spec := dpgraph.ReleaseSpec{Mechanism: "release", Epsilon: 2, Seed: 7}
	oracle, _, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	return oracle
}

// newTestCoordinator wires a coordinator over the fleet and fronts it
// with an httptest server.
func newTestCoordinator(t *testing.T, fleet []*testReplica, cfg Config) (*Coordinator, *httptest.Server) {
	t.Helper()
	for _, rep := range fleet {
		cfg.Replicas = append(cfg.Replicas, rep.url())
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = 100 * time.Millisecond
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	return c, ts
}

// getJSON decodes a GET response into v, returning the status.
func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	if v != nil {
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("bad JSON from %s: %v\n%s", url, err, data)
		}
	}
	return resp.StatusCode
}

type pointAnswer struct {
	S     int      `json:"s"`
	T     int      `json:"t"`
	Value *float64 `json:"value"`
}

// queryPoint fires one point query through the coordinator and returns
// status, answer, and the response headers.
func queryPoint(t *testing.T, base string, s, tt int) (int, pointAnswer, http.Header) {
	t.Helper()
	resp, err := http.Get(fmt.Sprintf("%s/v1/releases/main/distance?s=%d&t=%d", base, s, tt))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	var ans pointAnswer
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(data, &ans); err != nil {
			t.Fatalf("bad point answer: %v\n%s", err, data)
		}
	}
	return resp.StatusCode, ans, resp.Header
}

// waitReplicaState polls the coordinator until the replica reports the
// wanted breaker state, returning how long it took.
func waitReplicaState(t *testing.T, c *Coordinator, url, want string, within time.Duration) time.Duration {
	t.Helper()
	start := time.Now()
	deadline := start.Add(within)
	for time.Now().Before(deadline) {
		for _, rep := range c.snapshotReplicas() {
			if rep.url == url && rep.status().State == want {
				return time.Since(start)
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("replica %s never reached state %q within %v", url, want, within)
	return 0
}

// TestClusterRoutingAgreement: point, batch, and stream answers routed
// through the coordinator all equal the single-node oracle, and the
// release listing proxies through.
func TestClusterRoutingAgreement(t *testing.T) {
	fleet := newTestFleet(t, 3)
	_, ts := newTestCoordinator(t, fleet, Config{})
	oracle := fleetOracle(t)

	for s := 0; s < 4; s++ {
		for tt := 12; tt < 16; tt++ {
			status, ans, hdr := queryPoint(t, ts.URL, s, tt)
			if status != http.StatusOK {
				t.Fatalf("point (%d,%d): status %d", s, tt, status)
			}
			want, err := oracle.Distance(s, tt)
			if err != nil {
				t.Fatal(err)
			}
			if ans.Value == nil || *ans.Value != want {
				t.Errorf("point (%d,%d) = %v, oracle says %g", s, tt, ans.Value, want)
			}
			if hdr.Get("X-Served-By") == "" {
				t.Error("answer missing X-Served-By")
			}
		}
	}

	// Batch through the proxy agrees too.
	resp, err := http.Post(ts.URL+"/v1/releases/main/distances", "application/json",
		strings.NewReader(`[[0,15],[1,2],[3,3]]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch struct {
		Count   int           `json:"count"`
		Results []pointAnswer `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || batch.Count != 3 {
		t.Fatalf("batch: status %d, %+v", resp.StatusCode, batch)
	}
	for _, r := range batch.Results {
		want, _ := oracle.Distance(r.S, r.T)
		if r.Value == nil || *r.Value != want {
			t.Errorf("batch (%d,%d) = %v, oracle says %g", r.S, r.T, r.Value, want)
		}
	}

	// Stream proxy: NDJSON queries down, answers back, all correct.
	sresp, err := http.Post(ts.URL+"/v1/releases/main/distances:stream", "text/plain",
		strings.NewReader("0 15\n1 2\n3 3\n"))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	sdata, _ := io.ReadAll(sresp.Body)
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d: %s", sresp.StatusCode, sdata)
	}
	lines := strings.Split(strings.TrimSpace(string(sdata)), "\n")
	if len(lines) != 3 {
		t.Fatalf("stream answered %d lines, want 3:\n%s", len(lines), sdata)
	}
	for _, line := range lines {
		var r pointAnswer
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad stream line %q: %v", line, err)
		}
		want, _ := oracle.Distance(r.S, r.T)
		if r.Value == nil || *r.Value != want {
			t.Errorf("stream (%d,%d) = %v, oracle says %g", r.S, r.T, r.Value, want)
		}
	}

	// The release listing proxies to a replica.
	var listing struct {
		Releases []struct {
			Name string `json:"name"`
		} `json:"releases"`
	}
	if status := getJSON(t, ts.URL+"/v1/releases", &listing); status != http.StatusOK {
		t.Fatalf("listing status %d", status)
	}
	if len(listing.Releases) != 1 || listing.Releases[0].Name != "main" {
		t.Errorf("listing = %+v", listing)
	}
}

// TestClusterRegistration: a coordinator born empty is not ready,
// becomes ready when a replica registers, and rejects junk URLs.
func TestClusterRegistration(t *testing.T) {
	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, nil, Config{ProbeInterval: 50 * time.Millisecond})

	if status := getJSON(t, ts.URL+"/livez", nil); status != http.StatusOK {
		t.Errorf("livez status %d", status)
	}
	if status := getJSON(t, ts.URL+"/readyz", nil); status != http.StatusServiceUnavailable {
		t.Errorf("empty-pool readyz status %d, want 503", status)
	}
	if status, _, _ := queryPoint(t, ts.URL, 0, 15); status != http.StatusServiceUnavailable {
		t.Errorf("empty-pool query status %d, want 503", status)
	}

	// Bad registrations bounce.
	for _, body := range []string{`{"url":"ftp://nope"}`, `{"url":"http://h:1/path"}`, `{}`, `not json`} {
		resp, err := http.Post(ts.URL+"/v1/replicas", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("register %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// A real one lands healthy (registration probes synchronously).
	resp, err := http.Post(ts.URL+"/v1/replicas", "application/json",
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, fleet[0].url())))
	if err != nil {
		t.Fatal(err)
	}
	var st replicaStatus
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register: status %d: %s", resp.StatusCode, data)
	}
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.State != "healthy" || len(st.Releases) != 1 || st.Releases[0] != "main" {
		t.Errorf("registered status = %+v", st)
	}
	if status := getJSON(t, ts.URL+"/readyz", nil); status != http.StatusOK {
		t.Errorf("readyz after registration: status %d", status)
	}
	if status, ans, _ := queryPoint(t, ts.URL, 0, 15); status != http.StatusOK || ans.Value == nil {
		t.Errorf("query after registration: status %d, %+v", status, ans)
	}

	// The pool listing shows it; re-registering is idempotent.
	http.Post(ts.URL+"/v1/replicas", "application/json", //nolint:errcheck
		strings.NewReader(fmt.Sprintf(`{"url":%q}`, fleet[0].url())))
	var pool struct {
		Replicas []replicaStatus `json:"replicas"`
	}
	getJSON(t, ts.URL+"/v1/replicas", &pool)
	if len(pool.Replicas) != 1 || pool.Replicas[0].State != "healthy" {
		t.Errorf("pool = %+v", pool)
	}
	_ = c
}

// TestClusterFailoverAndBreaker: with one replica answering 500s every
// query still succeeds via the healthy one; the sick replica is
// evicted, then re-admitted by probes after it heals.
func TestClusterFailoverAndBreaker(t *testing.T) {
	fleet := newTestFleet(t, 2)
	c, ts := newTestCoordinator(t, fleet, Config{ProbeInterval: 50 * time.Millisecond})
	oracle := fleetOracle(t)

	fleet[0].set(mode500)
	for i := 0; i < 30; i++ {
		status, ans, _ := queryPoint(t, ts.URL, i%4, 15)
		if status != http.StatusOK {
			t.Fatalf("query %d during 500s: status %d", i, status)
		}
		want, _ := oracle.Distance(i%4, 15)
		if ans.Value == nil || *ans.Value != want {
			t.Fatalf("query %d = %v, oracle says %g", i, ans.Value, want)
		}
	}
	waitReplicaState(t, c, fleet[0].url(), "evicted", 2*time.Second)
	if ev := c.metrics.evictions.Load(); ev == 0 {
		t.Error("eviction metric still zero")
	}

	// Heal it; the prober re-admits within a couple of cycles.
	fleet[0].set(modeOK)
	waitReplicaState(t, c, fleet[0].url(), "healthy", 2*time.Second)
	if re := c.metrics.readmissions.Load(); re == 0 {
		t.Error("readmission metric still zero")
	}
}

// TestClusterDeadline: with every replica hung, a client-shortened
// deadline surfaces as a 504 in deadline time, not coordinator-default
// time.
func TestClusterDeadline(t *testing.T) {
	fleet := newTestFleet(t, 2)
	_, ts := newTestCoordinator(t, fleet, Config{
		ProbeInterval: 200 * time.Millisecond,
		HedgeDelay:    -1, // isolate the deadline path from hedging
	})
	for _, rep := range fleet {
		rep.set(modeHang)
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/v1/releases/main/distance?s=0&t=15", nil)
	req.Header.Set("X-Request-Timeout", "150ms")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("hung-pool status = %d, want 504", resp.StatusCode)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline took %v, want ~150ms", elapsed)
	}
}

// TestClusterFallback: when every replica is out, releases with a
// local unsealed snapshot keep answering — correctly — and are marked
// as fallback serves; a 503 with Retry-After covers the rest.
func TestClusterFallback(t *testing.T) {
	g, w := fleetGraph()
	spec := dpgraph.ReleaseSpec{Mechanism: "release", Epsilon: 2, Seed: 7}
	oracle, res, err := spec.Materialize(g, dpgraph.PrivateWeights(w))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "main.dpsnap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := dpgraph.Seal(f, oracle, res); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, fleet, Config{
		ProbeInterval: 50 * time.Millisecond,
		SnapshotDir:   dir,
	})
	fleet[0].set(modeKill)
	waitReplicaState(t, c, fleet[0].url(), "evicted", 2*time.Second)

	status, ans, hdr := queryPoint(t, ts.URL, 0, 15)
	if status != http.StatusOK {
		t.Fatalf("fallback point: status %d", status)
	}
	want, _ := oracle.Distance(0, 15)
	if ans.Value == nil || *ans.Value != want {
		t.Errorf("fallback point = %v, sealed oracle says %g", ans.Value, want)
	}
	if got := hdr.Get("X-Served-By"); got != "local-fallback" {
		t.Errorf("X-Served-By = %q, want local-fallback", got)
	}

	// The fallback answers through the replicas' own handlers: compact
	// JSON, and the same strict body parsing.
	for _, tc := range []struct {
		body   string
		status int
	}{
		{`{"s":0,"t":15}`, http.StatusOK},
		{`{"s":0,"t":15,"x":1}`, http.StatusBadRequest},
	} {
		resp, err := http.Post(ts.URL+"/v1/releases/main/distance", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.status {
			t.Errorf("fallback POST %s: status %d, want %d: %s", tc.body, resp.StatusCode, tc.status, data)
		}
		if tc.status == http.StatusOK && string(data) != fmt.Sprintf(`{"s":0,"t":15,"value":%v}`, want) {
			t.Errorf("fallback POST %s answered %s, want the compact replica encoding", tc.body, data)
		}
	}

	resp, err := http.Post(ts.URL+"/v1/releases/main/distances", "application/json",
		strings.NewReader(`[[0,15],[2,9]]`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch struct {
		Mechanism string        `json:"mechanism"`
		Count     int           `json:"count"`
		Results   []pointAnswer `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || batch.Mechanism != "release" || batch.Count != 2 {
		t.Fatalf("fallback batch: status %d, %+v", resp.StatusCode, batch)
	}
	for _, r := range batch.Results {
		want, _ := oracle.Distance(r.S, r.T)
		if r.Value == nil || *r.Value != want {
			t.Errorf("fallback batch (%d,%d) = %v, want %g", r.S, r.T, r.Value, want)
		}
	}
	if c.metrics.fallbackServed.Load() == 0 {
		t.Error("fallback metric still zero")
	}

	// A release with no fallback sheds with Retry-After instead.
	resp2, err := http.Get(ts.URL + "/v1/releases/ghost/distance?s=0&t=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body) //nolint:errcheck
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable || resp2.Header.Get("Retry-After") == "" {
		t.Errorf("no-fallback release: status %d, Retry-After %q", resp2.StatusCode, resp2.Header.Get("Retry-After"))
	}
}

// TestClusterHedging: a fixed hedge delay rescues point queries whose
// primary is slow — answers come from the fast replica in hedge time,
// not slow-replica time.
func TestClusterHedging(t *testing.T) {
	g, w := fleetGraph()
	slow := serve.New(g, w, serve.Config{AllowSeeded: true})
	slowInner := slow.Handler()
	slowTS := httptest.NewServer(http.HandlerFunc(func(wr http.ResponseWriter, r *http.Request) {
		if strings.Contains(r.URL.Path, "/distance") {
			select {
			case <-time.After(300 * time.Millisecond):
			case <-r.Context().Done():
				return
			}
		}
		slowInner.ServeHTTP(wr, r)
	}))
	t.Cleanup(slowTS.Close)
	resp, err := http.Post(slowTS.URL+"/v1/releases", "application/json", strings.NewReader(fleetReleaseSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	fast := newTestFleet(t, 1)
	c, err := New(Config{
		Replicas:      []string{slowTS.URL, fast[0].url()},
		ProbeInterval: 200 * time.Millisecond,
		HedgeDelay:    10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	t.Cleanup(c.Stop)
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(ts.Close)
	oracle := fleetOracle(t)

	start := time.Now()
	const queries = 10
	for i := 0; i < queries; i++ {
		status, ans, _ := queryPoint(t, ts.URL, i%4, 15)
		if status != http.StatusOK {
			t.Fatalf("hedged query %d: status %d", i, status)
		}
		want, _ := oracle.Distance(i%4, 15)
		if ans.Value == nil || *ans.Value != want {
			t.Fatalf("hedged query %d = %v, oracle says %g", i, ans.Value, want)
		}
	}
	elapsed := time.Since(start)
	// Without hedging, every query landing on the slow primary costs
	// 300ms; round-robin sends half there, so 10 queries would need
	// >= 1.5s. Hedged, each costs ~hedge delay + a fast answer.
	if elapsed > 1200*time.Millisecond {
		t.Errorf("%d hedged queries took %v; hedging is not rescuing slow primaries", queries, elapsed)
	}
	if c.metrics.hedges.Load() == 0 {
		t.Error("hedge metric still zero")
	}
	if c.metrics.hedgeWins.Load() == 0 {
		t.Error("hedge-win metric still zero")
	}
}

// TestClusterRetryBudget: a pool that fails everything drains the
// retry budget and degrades to ~single attempts instead of
// multiplying load MaxAttempts-fold (no retry storm).
func TestClusterRetryBudget(t *testing.T) {
	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, fleet, Config{
		ProbeInterval:    time.Hour, // no probes: isolate the live-path budget
		FailureThreshold: 1 << 30,   // keep the breaker closed so attempts keep flowing
		RetryBudget:      0.05,
		HedgeDelay:       -1,
		RetryBackoff:     time.Microsecond,
	})
	fleet[0].set(mode500)

	const requests = 400
	for i := 0; i < requests; i++ {
		status, _, _ := queryPoint(t, ts.URL, 0, 15)
		if status != http.StatusBadGateway {
			t.Fatalf("request %d: status %d, want 502", i, status)
		}
	}
	proxied := c.metrics.proxied.Load()
	// Unbounded retries would send requests*MaxAttempts = 1200 attempts.
	// The budget allows burst (64) + 5% of live traffic (~20) retries.
	if max := uint64(requests + 64 + requests/20 + 20); proxied > max {
		t.Errorf("pool saw %d attempts for %d requests; retry budget is not bounding the storm (want <= %d)", proxied, requests, max)
	}
	if c.metrics.budgetExhausted.Load() == 0 {
		t.Error("budget-exhausted metric still zero")
	}
}

// TestClusterLifecycleRefused: release-mutating endpoints are not
// proxied — materializing through the pool would give every replica
// different noise.
func TestClusterLifecycleRefused(t *testing.T) {
	fleet := newTestFleet(t, 1)
	_, ts := newTestCoordinator(t, fleet, Config{})

	resp, err := http.Post(ts.URL+"/v1/releases", "application/json", strings.NewReader(fleetReleaseSpec))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("POST /v1/releases: status %d, want 501", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/releases/main", nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotImplemented {
		t.Errorf("DELETE: status %d, want 501", resp.StatusCode)
	}
}

// TestClusterDrain: draining flips readiness so load balancers stop
// sending, while metrics stay reachable.
func TestClusterDrain(t *testing.T) {
	fleet := newTestFleet(t, 1)
	c, ts := newTestCoordinator(t, fleet, Config{})
	if status := getJSON(t, ts.URL+"/readyz", nil); status != http.StatusOK {
		t.Fatalf("pre-drain readyz status %d", status)
	}
	c.StartDrain()
	var rz struct {
		Status string `json:"status"`
	}
	if status := getJSON(t, ts.URL+"/readyz", &rz); status != http.StatusServiceUnavailable || rz.Status != "draining" {
		t.Errorf("draining readyz = %d %q", status, rz.Status)
	}
	if status := getJSON(t, ts.URL+"/metrics", nil); status != http.StatusOK {
		t.Errorf("metrics during drain: status %d", status)
	}
}
