//go:build perfguard

package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/dpgraph"
	"repro/internal/perfguard"
)

// gridFile writes a side x side grid with private weights 1 + i%7 in
// the text graph format.
func gridFile(t *testing.T, side int) string {
	t.Helper()
	g := dpgraph.Grid(side)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = float64(1 + i%7)
	}
	var text strings.Builder
	if err := dpgraph.WriteGraphText(&text, g, w); err != nil {
		t.Fatal(err)
	}
	return writeFile(t, "grid.txt", text.String())
}

// sealGrid writes the 100,800-edge grid and seals a seeded release of
// it with the given index, named after it, into a fresh snapshot
// directory.
func sealGrid(t *testing.T, index string) (graphPath, dir string) {
	t.Helper()
	graphPath, dir = gridFile(t, 225), t.TempDir()
	if err := fleetSeal(graphPath, filepath.Join(dir, index+".dpsnap"), index, 42); err != nil {
		t.Fatal(err)
	}
	return graphPath, dir
}

// serveSealed boots a `dpgraph serve` process that restores every
// snapshot in dir, with no in-flight cap and the given extra flags,
// and returns its URL once it listens (after the restore).
func serveSealed(t *testing.T, exe, graphPath, dir string, flags ...string) string {
	t.Helper()
	args := append([]string{"-graph", graphPath, "serve", "-addr", "127.0.0.1:0",
		"-snapshot-dir", dir, "-max-inflight", "0"}, flags...)
	p, err := startFleetProc(exe, args, "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.kill)
	return "http://" + p.addr
}

// benchWithin runs one bench-serve load after a garbage collection, as
// testing.B does before each run, and fails the test when more than
// maxErr of the requests fail. It returns requests (stream: pairs) per
// second.
func benchWithin(t *testing.T, cfg benchConfig, maxErr float64) float64 {
	t.Helper()
	runtime.GC()
	res, err := benchServe(cfg)
	if err == nil {
		err = benchErrorBudget(io.Discard, "requests", res.failed, int64(cfg.n), maxErr, res.lastErr)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res.perSecond()
}

// TestServeStreamThroughput: a daemon process serving the hub-label
// release of the 100,800-edge grid answers >= 100k pairs/s through the pipelined
// NDJSON stream endpoint (200,000 pairs over 4 streams).
func TestServeStreamThroughput(t *testing.T) {
	graphPath, dir := sealGrid(t, "hl")
	url := serveSealed(t, buildDpgraph(t), graphPath, dir)
	pairs := benchWithin(t, benchConfig{url: url, release: "hl", n: 200000, c: 4, seed: 1, source: -1, stream: true}, 0)
	t.Logf("pipelined stream: %.0f pairs/s", pairs)
	if pairs < 100000 {
		t.Errorf("pipelined stream throughput %.0f pairs/s < 100k", pairs)
	}
}

// TestServeCoalescingSpeedup: 256 concurrent clients asking distinct
// targets from vertex 0 of the CH release get >= 2x the requests/s
// from a daemon process with the sweep coalescer on (20ms window, 128
// pending) as from one without it (4,096 requests each).
func TestServeCoalescingSpeedup(t *testing.T) {
	exe := buildDpgraph(t)
	graphPath, dir := sealGrid(t, "ch")
	plain := serveSealed(t, exe, graphPath, dir)
	coalesced := serveSealed(t, exe, graphPath, dir, "-coalesce-window", "20ms", "-coalesce-max", "128")
	load := benchConfig{url: plain, release: "ch", n: 4096, c: 256, seed: 1, source: 0}
	a := benchWithin(t, load, 0)
	load.url = coalesced
	b := benchWithin(t, load, 0)
	t.Logf("coalesced same-source speedup: %.2fx (%.1f vs %.1f requests/s)", b/a, b, a)
	if b/a < 2 {
		t.Errorf("coalesced same-source throughput %.2fx < 2x uncoalesced", b/a)
	}
}

// buildDpgraph builds this command for tests that run real daemon
// processes.
func buildDpgraph(t *testing.T) string {
	t.Helper()
	exe := filepath.Join(t.TempDir(), "dpgraph")
	if out, err := exec.Command("go", "build", "-o", exe, ".").CombinedOutput(); err != nil {
		t.Fatalf("building dpgraph: %v\n%s", err, out)
	}
	return exe
}

// TestFleetScaling: three single-core replica processes behind the
// route coordinator deliver >= 2x the aggregate requests/s of one, on
// an unindexed release where each query is a CPU-bound Dijkstra
// (4,000 requests from 16 workers per scale).
func TestFleetScaling(t *testing.T) {
	perfguard.RequireProcs(t, 6, "three pinned replicas, the coordinator, and the bench client each need a core; on fewer, every process shares one and aggregate throughput cannot scale")
	qps, err := fleetRun(io.Discard, buildDpgraph(t), fleetConfig{
		graphPath: gridFile(t, 60), replicas: 3, procs: 1, requests: 4000, workers: 16,
		index: "off", seed: 7, probe: 250 * time.Millisecond, timeout: 5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("fleet scaling 1 -> 3 replicas: %.2fx (%.1f vs %.1f requests/s)", qps[2]/qps[0], qps[2], qps[0])
	if qps[2]/qps[0] < 2 {
		t.Errorf("3-replica aggregate qps %.2fx < 2x a single replica", qps[2]/qps[0])
	}
}

// TestFleetKillRecovery: after one of three live replica processes is
// killed -9, the coordinator evicts it within two 250ms probe
// intervals (plus 500ms of polling slack), and the degraded pool
// serves 2,000 requests within a 1% error budget.
func TestFleetKillRecovery(t *testing.T) {
	exe, graphPath, dir := buildDpgraph(t), gridFile(t, 60), t.TempDir()
	if err := fleetSeal(graphPath, filepath.Join(dir, "bench.dpsnap"), "off", 7); err != nil {
		t.Fatal(err)
	}
	replicas, err := startFleetReplicas(exe, graphPath, dir, 3, 1)
	t.Cleanup(func() { killFleetProcs(replicas) })
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, p := range replicas {
		urls = append(urls, "http://"+p.addr)
	}
	coord, err := startFleetCoordinator(exe, 250*time.Millisecond, strings.Join(urls, ","))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.kill)
	coordURL := "http://" + coord.addr

	if !awaitReplicas(t, coordURL, "healthy", 3, 100) {
		t.Fatal("not all 3 replicas became healthy at the coordinator")
	}
	replicas[2].kill()
	start := time.Now()
	if !awaitReplicas(t, coordURL, "evicted", 1, 60) {
		t.Fatal("killed replica was never evicted")
	}
	elapsed := time.Since(start)
	t.Logf("killed replica evicted after %v (probe interval 250ms)", elapsed)
	if elapsed > time.Second {
		t.Errorf("eviction took %v, want <= 2 probe intervals (500ms + slack)", elapsed)
	}
	benchWithin(t, benchConfig{url: coordURL, release: "bench", n: 2000, c: 8, seed: 1, source: -1, timeout: 5 * time.Second}, 0.01)
}

// awaitReplicas polls the coordinator's pool every 50ms, at most polls
// times, until want replicas are in state.
func awaitReplicas(t *testing.T, coordURL, state string, want, polls int) bool {
	t.Helper()
	for i := 0; i < polls; i++ {
		resp, err := http.Get(coordURL + "/v1/replicas")
		if err != nil {
			t.Fatal(err)
		}
		var list struct{ Replicas []struct{ State string } }
		err = json.NewDecoder(resp.Body).Decode(&list)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, r := range list.Replicas {
			if r.State == state {
				n++
			}
		}
		if n >= want {
			return true
		}
		time.Sleep(50 * time.Millisecond)
	}
	return false
}
