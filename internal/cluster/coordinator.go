// Package cluster is the fault-tolerant multi-replica serving tier
// over the dpgraph HTTP daemon: a coordinator that proxies point,
// batch, and stream distance requests across a pool of replica daemons
// (each a `dpgraph serve` booted from the same sealed snapshots, so any
// replica can answer any query for a release it holds).
//
// The routing discipline, in order:
//
//   - Consistent hashing on the release name yields a per-release
//     replica preference order (a configurable replication-factor
//     prefix of it is the release's working set; requests rotate
//     round-robin inside the set and spill past it only when every
//     member is out).
//   - Active health probes hit every replica's /readyz each probe
//     interval, learning its ready-release set from the same response;
//     probe failures and live-request failures both feed a per-replica
//     circuit breaker (consecutive-failure threshold, half-open
//     re-admission via the next successful probe or a single trial
//     request after a cooldown).
//   - Every request carries a deadline (the coordinator default, or the
//     client's X-Request-Timeout if shorter) propagated through the
//     proxy transport's context; retries only spend time that remains.
//   - Failures retry on the next replica in preference order with
//     jittered exponential backoff, bounded per request by MaxAttempts
//     and globally by a retry budget (a fraction of live traffic), so
//     an outage degrades to single-attempt routing instead of a retry
//     storm.
//   - Point queries hedge: if the primary has not answered within a
//     p99-derived delay, a second identical request races it on another
//     replica and the first answer wins. Hedges spend retry budget.
//   - When every replica for a release is out, the coordinator answers
//     from a locally unsealed snapshot fallback if it has one, and
//     otherwise sheds with 503 + Retry-After.
//
// The downstream transport is injectable; ChaosTransport implements
// the `-chaos-*` fault-injection flags and doubles as the test harness
// for the kill/hang/slow convergence tests.
package cluster

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Config tunes the coordinator. The zero value is usable with defaults
// filled in by New; Replicas may be empty when replicas register
// themselves over POST /v1/replicas.
type Config struct {
	// Replicas is the static seed list of replica base URLs
	// (scheme://host:port, no trailing slash required).
	Replicas []string
	// ProbeInterval is the active health-probe period; <= 0 takes
	// DefaultProbeInterval.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe; <= 0 takes half the probe
	// interval (a hung replica must be detected within one cycle).
	ProbeTimeout time.Duration
	// RequestTimeout is the default end-to-end deadline for one proxied
	// client request, all retries and hedges included; <= 0 takes
	// DefaultRequestTimeout. Clients may shorten (never extend) it per
	// request with an X-Request-Timeout header holding a Go duration.
	RequestTimeout time.Duration
	// MaxAttempts bounds tries per request (first attempt included);
	// <= 0 takes DefaultMaxAttempts.
	MaxAttempts int
	// RetryBackoff is the base backoff before the second attempt,
	// doubling each retry with +-50% jitter; <= 0 takes
	// DefaultRetryBackoff.
	RetryBackoff time.Duration
	// RetryBudget caps retries + hedges as a fraction of live requests
	// (plus a small burst so a cold coordinator can still retry);
	// <= 0 takes DefaultRetryBudget. It is the anti-retry-storm bound:
	// when the whole pool is failing, the budget drains and requests
	// degrade to single attempts instead of multiplying load.
	RetryBudget float64
	// HedgeDelay is how long a point query waits before racing a second
	// replica: 0 derives it from the observed p99 point latency
	// (re-sampled continuously, floored at DefaultHedgeFloor), negative
	// disables hedging.
	HedgeDelay time.Duration
	// FailureThreshold is the consecutive-failure count that opens a
	// replica's circuit breaker; <= 0 takes DefaultFailureThreshold.
	FailureThreshold int
	// ReplicationFactor is the size of each release's hash-selected
	// replica working set; <= 0 means every replica serves every
	// release.
	ReplicationFactor int
	// MaxBodyBytes bounds a buffered (retryable) request body; <= 0
	// takes DefaultMaxBodyBytes.
	MaxBodyBytes int64
	// SnapshotDir, when set, is unsealed at New into a local fallback:
	// releases found there keep answering (marked X-Served-By:
	// local-fallback) when every replica for them is out.
	SnapshotDir string
	// VerifyKey, when set, requires every fallback snapshot to carry a
	// signature verifying against it.
	VerifyKey ed25519.PublicKey
	// Transport performs the proxied requests; nil means a dedicated
	// http.Transport with per-replica keep-alive pools. Wrap it in a
	// ChaosTransport to inject faults.
	Transport http.RoundTripper
	// Logf, when set, receives one line per routing event (evictions,
	// re-admissions, fallback serves); nil discards them.
	Logf func(format string, args ...any)
}

// Defaults for the zero Config.
const (
	DefaultProbeInterval    = 1 * time.Second
	DefaultRequestTimeout   = 10 * time.Second
	DefaultMaxAttempts      = 3
	DefaultRetryBackoff     = 2 * time.Millisecond
	DefaultRetryBudget      = 0.1
	DefaultFailureThreshold = 3
	DefaultMaxBodyBytes     = 32 << 20
	// DefaultHedgeFloor keeps an auto-derived hedge delay from firing a
	// second request for queries the primary answers almost instantly.
	DefaultHedgeFloor = 2 * time.Millisecond
)

// retryBudgetBurst is the token ceiling of the retry budget: enough
// for a cold coordinator to ride out a brief outage, small enough that
// a dead pool cannot accumulate a storm's worth of credit.
const retryBudgetBurst = 64.0

// Coordinator routes distance traffic across the replica pool. Safe
// for concurrent use; construct with New, then Start the health
// prober, and Stop it on shutdown.
type Coordinator struct {
	cfg    Config
	client *http.Client

	mu       sync.RWMutex
	replicas map[string]*replica
	ring     *ring

	// fallback serves the releases restored from SnapshotDir, through
	// the replicas' own handlers, when every replica holding one is out;
	// nil without a SnapshotDir.
	fallback        *serve.Server
	fallbackHandler http.Handler
	fallbacks       int // releases the fallback holds

	// rr rotates requests across a release's healthy working set.
	rr atomic.Uint64

	// retry budget: fixed-point millitokens so the hot path stays
	// atomic (1000 = one retry token).
	retryTokens atomic.Int64

	// point-latency sampling for the auto hedge delay.
	lat       latencySampler
	hedgeNS   atomic.Int64 // cached p99-derived hedge delay
	draining  atomic.Bool
	metrics   coordMetrics
	started   time.Time
	stopOnce  sync.Once
	stopc     chan struct{}
	proberWG  sync.WaitGroup
	jitterMu  sync.Mutex
	jitterRNG *rand.Rand
}

// coordMetrics counts coordinator-level routing traffic.
type coordMetrics struct {
	requests        atomic.Uint64
	proxied         atomic.Uint64 // downstream attempts sent
	retries         atomic.Uint64
	hedges          atomic.Uint64
	hedgeWins       atomic.Uint64
	budgetExhausted atomic.Uint64
	evictions       atomic.Uint64
	readmissions    atomic.Uint64
	fallbackServed  atomic.Uint64
	unavailable     atomic.Uint64
	deadlineExpired atomic.Uint64
}

// New builds a coordinator over the static replica list and loads the
// snapshot fallback if configured. Call Start to begin health probing.
func New(cfg Config) (*Coordinator, error) {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = DefaultProbeInterval
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = cfg.ProbeInterval / 2
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = DefaultMaxAttempts
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = DefaultRetryBackoff
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = DefaultRetryBudget
	}
	if cfg.FailureThreshold <= 0 {
		cfg.FailureThreshold = DefaultFailureThreshold
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	transport := cfg.Transport
	if transport == nil {
		transport = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	c := &Coordinator{
		cfg:       cfg,
		client:    &http.Client{Transport: transport},
		replicas:  make(map[string]*replica),
		started:   time.Now(),
		stopc:     make(chan struct{}),
		jitterRNG: rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	c.retryTokens.Store(int64(retryBudgetBurst * 1000))
	for _, raw := range cfg.Replicas {
		if _, err := c.addReplica(raw); err != nil {
			return nil, err
		}
	}
	if cfg.SnapshotDir != "" {
		// Restores spend no budget, so the directory alone bounds how
		// many releases the fallback holds.
		c.fallback = serve.New(nil, nil, serve.Config{
			MaxBodyBytes: cfg.MaxBodyBytes,
			MaxReleases:  math.MaxInt,
			VerifyKey:    cfg.VerifyKey,
		})
		n, err := c.fallback.RestoreDir(cfg.SnapshotDir)
		if err != nil {
			return nil, fmt.Errorf("loading fallback: %w", err)
		}
		c.fallbackHandler, c.fallbacks = c.fallback.Handler(), n
		c.logf("cluster: loaded %d fallback release(s) from %s", n, cfg.SnapshotDir)
	}
	return c, nil
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Logf != nil {
		c.cfg.Logf(format, args...)
	}
}

// normalizeReplicaURL validates and canonicalizes one replica base URL.
func normalizeReplicaURL(raw string) (string, error) {
	raw = strings.TrimSuffix(strings.TrimSpace(raw), "/")
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("bad replica url %q: %w", raw, err)
	}
	if u.Scheme != "http" && u.Scheme != "https" {
		return "", fmt.Errorf("bad replica url %q: want http:// or https://", raw)
	}
	if u.Host == "" || u.Path != "" || u.RawQuery != "" {
		return "", fmt.Errorf("bad replica url %q: want scheme://host:port with no path", raw)
	}
	return u.Scheme + "://" + u.Host, nil
}

// addReplica registers a replica URL, rebuilding the hash ring. It is
// idempotent: re-registering an existing URL returns the live entry
// (keeping its health history) rather than resetting it.
func (c *Coordinator) addReplica(raw string) (*replica, error) {
	urlStr, err := normalizeReplicaURL(raw)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if rep, ok := c.replicas[urlStr]; ok {
		return rep, nil
	}
	rep := &replica{url: urlStr}
	c.replicas[urlStr] = rep
	urls := make([]string, 0, len(c.replicas))
	for u := range c.replicas {
		urls = append(urls, u)
	}
	c.ring = buildRing(urls)
	return rep, nil
}

// Start primes replica health with one synchronous probe round and
// launches the background prober.
func (c *Coordinator) Start() {
	c.probeAll()
	c.proberWG.Add(1)
	go func() {
		defer c.proberWG.Done()
		t := time.NewTicker(c.cfg.ProbeInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stopc:
				return
			case <-t.C:
				c.probeAll()
			}
		}
	}()
}

// Stop halts the prober and waits for it to exit.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stopc) })
	c.proberWG.Wait()
}

// StartDrain flips /readyz so load balancers stop sending; proxied
// requests already in flight finish normally.
func (c *Coordinator) StartDrain() { c.draining.Store(true) }

// snapshotReplicas returns the current pool under the read lock.
func (c *Coordinator) snapshotReplicas() []*replica {
	c.mu.RLock()
	out := make([]*replica, 0, len(c.replicas))
	for _, rep := range c.replicas {
		out = append(out, rep)
	}
	c.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].url < out[j].url })
	return out
}

// probeAll probes every replica concurrently and returns when all
// probes resolve (each bounded by ProbeTimeout).
func (c *Coordinator) probeAll() {
	reps := c.snapshotReplicas()
	var wg sync.WaitGroup
	for _, rep := range reps {
		wg.Add(1)
		go func(rep *replica) {
			defer wg.Done()
			c.probeOne(rep)
		}(rep)
	}
	wg.Wait()
}

// probeOne sends one /readyz probe: a 200 refreshes the replica's
// release set and closes its breaker; anything else (timeout, refusal,
// 503 draining/materializing) counts toward opening it.
func (c *Coordinator) probeOne(rep *replica) {
	rep.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, rep.url+"/readyz", nil)
	if err != nil {
		c.noteProbeFailure(rep, err)
		return
	}
	resp, err := c.client.Do(req)
	if err != nil {
		c.noteProbeFailure(rep, err)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if resp.StatusCode != http.StatusOK {
		c.noteProbeFailure(rep, fmt.Errorf("readyz status %s", resp.Status))
		return
	}
	var rz struct {
		Releases []string `json:"releases"`
	}
	releases := map[string]bool{}
	if err := json.Unmarshal(body, &rz); err == nil {
		for _, name := range rz.Releases {
			releases[name] = true
		}
	}
	if rep.markSuccess(releases) {
		c.metrics.readmissions.Add(1)
		c.logf("cluster: replica %s re-admitted (readyz ok, %d release(s))", rep.url, len(releases))
	}
}

// probeFailureThreshold caps how many failed probes an unreachable
// replica survives: a probe is a deliberate health check, so two
// misses in a row are decisive — this is what bounds eviction of an
// idle (no live traffic) replica to two probe intervals.
const probeFailureThreshold = 2

func (c *Coordinator) noteProbeFailure(rep *replica, err error) {
	rep.probeFails.Add(1)
	threshold := c.cfg.FailureThreshold
	if threshold > probeFailureThreshold {
		threshold = probeFailureThreshold
	}
	if rep.markFailure(threshold) {
		c.metrics.evictions.Add(1)
		c.logf("cluster: replica %s evicted (probe: %v)", rep.url, err)
	}
}

// noteRequestFailure records a failed live request against the breaker.
func (c *Coordinator) noteRequestFailure(rep *replica, err error) {
	rep.failures.Add(1)
	if rep.markFailure(c.cfg.FailureThreshold) {
		c.metrics.evictions.Add(1)
		c.logf("cluster: replica %s evicted (request: %v)", rep.url, err)
	}
}

func (c *Coordinator) noteRequestSuccess(rep *replica) {
	if rep.markSuccess(nil) {
		c.metrics.readmissions.Add(1)
		c.logf("cluster: replica %s re-admitted (live request ok)", rep.url)
	}
}

// candidates assembles the release's replica preference order: the
// hash-selected working set first (healthy members, round-robin
// rotated so load spreads inside the set), then healthy spillover
// replicas outside the set, then — only when nothing is healthy — one
// evicted replica willing to run a half-open trial. Replicas whose
// probed release set excludes the release sort last among their tier.
func (c *Coordinator) candidates(release string) []*replica {
	c.mu.RLock()
	ring := c.ring
	c.mu.RUnlock()
	if ring == nil {
		return nil
	}
	order := ring.sequence(release)
	k := c.cfg.ReplicationFactor
	if k <= 0 || k > len(order) {
		k = len(order)
	}
	var set, spill, nonHolders []*replica
	for i, urlStr := range order {
		c.mu.RLock()
		rep := c.replicas[urlStr]
		c.mu.RUnlock()
		if rep == nil || !rep.healthy() {
			continue
		}
		holds, known := rep.holds(release)
		switch {
		case known && !holds:
			nonHolders = append(nonHolders, rep)
		case i < k:
			set = append(set, rep)
		default:
			spill = append(spill, rep)
		}
	}
	// Rotate inside the working set so a single hot release spreads
	// over its whole replica set instead of hammering the primary.
	if len(set) > 1 {
		off := int(c.rr.Add(1)) % len(set)
		set = append(set[off:], set[:off]...)
	}
	cands := append(set, spill...)
	cands = append(cands, nonHolders...)
	if len(cands) > 0 {
		return cands
	}
	// Nothing healthy: offer one half-open trial on an evicted replica
	// whose cooldown (one probe interval) has passed, so traffic itself
	// can re-admit the pool even if the prober is slow.
	for _, urlStr := range order {
		c.mu.RLock()
		rep := c.replicas[urlStr]
		c.mu.RUnlock()
		if rep != nil && rep.tryTrial(c.cfg.ProbeInterval) {
			return []*replica{rep}
		}
	}
	return nil
}

// requestDeadline resolves the end-to-end deadline for one client
// request: the coordinator default, shortened (never extended) by an
// X-Request-Timeout header carrying a Go duration.
func (c *Coordinator) requestDeadline(r *http.Request) time.Duration {
	d := c.cfg.RequestTimeout
	if h := r.Header.Get("X-Request-Timeout"); h != "" {
		if v, err := time.ParseDuration(h); err == nil && v > 0 && v < d {
			d = v
		}
	}
	return d
}

// takeRetryToken spends one retry-budget token; false means the budget
// is exhausted and the caller must not retry or hedge.
func (c *Coordinator) takeRetryToken() bool {
	if c.retryTokens.Add(-1000) >= 0 {
		return true
	}
	c.retryTokens.Add(1000) // put it back; stay clamped at the floor
	c.metrics.budgetExhausted.Add(1)
	return false
}

// earnRetryCredit accrues budget from live traffic: every request adds
// RetryBudget tokens, clamped at the burst ceiling.
func (c *Coordinator) earnRetryCredit() {
	credit := int64(c.cfg.RetryBudget * 1000)
	if v := c.retryTokens.Add(credit); v > int64(retryBudgetBurst*1000) {
		c.retryTokens.Add(int64(retryBudgetBurst*1000) - v)
	}
}

// backoffDelay returns the jittered exponential backoff before retry
// attempt n (1-based): base * 2^(n-1), +-50% jitter.
func (c *Coordinator) backoffDelay(n int) time.Duration {
	d := c.cfg.RetryBackoff << uint(n-1)
	if d > 250*time.Millisecond {
		d = 250 * time.Millisecond
	}
	c.jitterMu.Lock()
	f := 0.5 + c.jitterRNG.Float64()
	c.jitterMu.Unlock()
	return time.Duration(float64(d) * f)
}

// hedgeDelay resolves the current hedge delay: the configured one, or
// the cached p99 of observed point latencies (recomputed every
// hedgeRecomputeEvery samples), floored at DefaultHedgeFloor.
func (c *Coordinator) hedgeDelay() time.Duration {
	if c.cfg.HedgeDelay != 0 {
		return c.cfg.HedgeDelay
	}
	if ns := c.hedgeNS.Load(); ns > 0 {
		return time.Duration(ns)
	}
	return DefaultHedgeFloor
}

const hedgeRecomputeEvery = 64

// observePointLatency feeds the hedge-delay estimator.
func (c *Coordinator) observePointLatency(d time.Duration) {
	n := c.lat.record(d)
	if n%hedgeRecomputeEvery == 0 {
		p99 := c.lat.p99()
		if p99 < DefaultHedgeFloor {
			p99 = DefaultHedgeFloor
		}
		c.hedgeNS.Store(int64(p99))
	}
}

// latencySampler is a small lock-free ring of recent point latencies
// for the p99 hedge-delay estimate.
type latencySampler struct {
	n    atomic.Uint64
	ring [512]atomic.Int64
}

func (l *latencySampler) record(d time.Duration) uint64 {
	i := l.n.Add(1) - 1
	l.ring[i%uint64(len(l.ring))].Store(int64(d))
	return i + 1
}

func (l *latencySampler) p99() time.Duration {
	n := l.n.Load()
	if n == 0 {
		return 0
	}
	if n > uint64(len(l.ring)) {
		n = uint64(len(l.ring))
	}
	buf := make([]int64, n)
	for i := range buf {
		buf[i] = l.ring[i].Load()
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return time.Duration(buf[int(0.99*float64(len(buf)-1))])
}

// ---------------------------------------------------------------------
// Proxy plumbing

// proxyResult is one buffered downstream answer.
type proxyResult struct {
	status int
	header http.Header
	body   []byte
	rep    *replica
	hedged bool
}

// retryableStatus reports whether a downstream status is a replica
// failure worth trying elsewhere (5xx) or a shed worth failing over
// (429) rather than a client error to pass through.
func retryableStatus(status int) bool {
	return status >= 500 || status == http.StatusTooManyRequests
}

// breakerStatus reports whether the status should count against the
// replica's breaker: 5xx does, 429 is load shedding, not sickness.
func breakerStatus(status int) bool { return status >= 500 }

// sendOnce performs one downstream attempt against rep, buffering the
// response. The context carries the remaining request deadline; the
// remaining time also rides an X-Request-Deadline-Ms header so a
// replica (or a human reading chaos logs) can see the budget it got.
func (c *Coordinator) sendOnce(ctx context.Context, rep *replica, method, pathq, contentType string, body []byte) (proxyResult, error) {
	c.metrics.proxied.Add(1)
	rep.requests.Add(1)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.url+pathq, rd)
	if err != nil {
		return proxyResult{}, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if dl, ok := ctx.Deadline(); ok {
		req.Header.Set("X-Request-Deadline-Ms", strconv.FormatInt(time.Until(dl).Milliseconds(), 10))
	}
	resp, err := c.client.Do(req)
	if err != nil {
		// A cancelled attempt (a losing hedge, or the client walking
		// away) is the coordinator's doing, not the replica's — it must
		// not feed the breaker. A deadline expiry is the replica's.
		if !errors.Is(err, context.Canceled) {
			c.noteRequestFailure(rep, err)
		}
		return proxyResult{}, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, c.cfg.MaxBodyBytes+1))
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			c.noteRequestFailure(rep, err)
		}
		return proxyResult{}, err
	}
	pr := proxyResult{status: resp.StatusCode, header: resp.Header, body: respBody, rep: rep}
	if breakerStatus(resp.StatusCode) {
		c.noteRequestFailure(rep, fmt.Errorf("status %s", resp.Status))
	} else {
		c.noteRequestSuccess(rep)
	}
	return pr, nil
}

// errNoReplicas marks a request that found no routable replica at all.
var errNoReplicas = errors.New("no healthy replica")

// execute routes one buffered request with retries (and hedging for
// point queries): attempts walk the candidate order with jittered
// backoff, each bounded by the remaining deadline and the retry
// budget.
func (c *Coordinator) execute(ctx context.Context, release, method, pathq, contentType string, body []byte, hedge bool) (proxyResult, error) {
	var lastErr error
	for attempt := 0; attempt < c.cfg.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return proxyResult{}, err
		}
		cands := c.candidates(release)
		if len(cands) == 0 {
			if lastErr == nil {
				lastErr = errNoReplicas
			}
			return proxyResult{}, lastErr
		}
		if attempt > 0 {
			// Paying for this retry: budget first, then backoff inside
			// the remaining deadline.
			if !c.takeRetryToken() {
				return proxyResult{}, lastErr
			}
			c.metrics.retries.Add(1)
			select {
			case <-time.After(c.backoffDelay(attempt)):
			case <-ctx.Done():
				return proxyResult{}, ctx.Err()
			}
			// Rotate past the replica that just failed.
			cands = c.candidates(release)
			if len(cands) == 0 {
				return proxyResult{}, lastErr
			}
		}
		var res proxyResult
		var err error
		if hedge && c.cfg.HedgeDelay >= 0 && len(cands) > 1 {
			res, err = c.attemptHedged(ctx, cands, method, pathq, contentType, body)
		} else {
			res, err = c.sendOnce(ctx, cands[0], method, pathq, contentType, body)
		}
		if err != nil {
			lastErr = err
			continue
		}
		if retryableStatus(res.status) {
			lastErr = fmt.Errorf("replica %s answered status %d", res.rep.url, res.status)
			continue
		}
		return res, nil
	}
	return proxyResult{}, lastErr
}

// attemptHedged races the primary candidate against one hedge fired
// after the hedge delay; the first non-failure answer wins and the
// loser's context is cancelled.
func (c *Coordinator) attemptHedged(ctx context.Context, cands []*replica, method, pathq, contentType string, body []byte) (proxyResult, error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel()
	type out struct {
		res proxyResult
		err error
	}
	resc := make(chan out, 2)
	launch := func(rep *replica, hedged bool) {
		go func() {
			res, err := c.sendOnce(actx, rep, method, pathq, contentType, body)
			res.hedged = hedged
			resc <- out{res, err}
		}()
	}
	launch(cands[0], false)
	inFlight := 1
	hedgeFired := false
	timer := time.NewTimer(c.hedgeDelay())
	defer timer.Stop()
	var lastErr error
	for inFlight > 0 {
		select {
		case o := <-resc:
			inFlight--
			switch {
			case o.err == nil && !retryableStatus(o.res.status):
				if o.res.hedged {
					c.metrics.hedgeWins.Add(1)
				}
				return o.res, nil
			case o.err != nil:
				lastErr = o.err
			default:
				lastErr = fmt.Errorf("replica %s answered status %d", o.res.rep.url, o.res.status)
			}
			// The primary failed fast: fire the backup immediately, the
			// delay was only ever about not duplicating healthy work.
			if !hedgeFired && inFlight == 0 && c.takeRetryToken() {
				hedgeFired = true
				c.metrics.hedges.Add(1)
				launch(cands[1], true)
				inFlight++
			}
		case <-timer.C:
			if !hedgeFired && c.takeRetryToken() {
				hedgeFired = true
				c.metrics.hedges.Add(1)
				launch(cands[1], true)
				inFlight++
			}
		case <-ctx.Done():
			return proxyResult{}, ctx.Err()
		}
	}
	return proxyResult{}, lastErr
}
