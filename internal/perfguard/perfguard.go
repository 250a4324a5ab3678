// Package perfguard holds what the benchmarks and the speed guards
// share: each guard times the op its benchmark runs. The guards live in
// guard_test.go files built with the perfguard tag and run without
// -race, one package at a time:
//
//	go test -tags perfguard -count=1 -p 1 ./...
package perfguard

import (
	"runtime"
	"testing"
	"time"
)

// Bench runs op b.N times, reporting allocations.
func Bench(b *testing.B, op func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// BestPerOp runs op iters times in a row, count times over, and returns
// the fastest run's mean time per op. Each run starts after a garbage
// collection, as a benchmark run does. Each side of a ratio takes its
// fastest run, which de-flakes the gate against noisy neighbours.
func BestPerOp(count, iters int, op func()) time.Duration {
	best := time.Duration(1<<63 - 1)
	for c := 0; c < count; c++ {
		runtime.GC()
		start := time.Now()
		for i := 0; i < iters; i++ {
			op()
		}
		if d := time.Since(start) / time.Duration(iters); d < best {
			best = d
		}
	}
	return best
}

// RequireProcs skips t unless the effective GOMAXPROCS is at least n.
func RequireProcs(t testing.TB, n int, why string) {
	t.Helper()
	if procs := runtime.GOMAXPROCS(0); procs < n {
		t.Skipf("needs GOMAXPROCS >= %d (have %d): %s", n, procs, why)
	}
}
