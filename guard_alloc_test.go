//go:build !race

package repro_test

import (
	"testing"

	"repro/internal/dp"
)

// The allocation guards run in every non-race `go test` on the
// benchmarks' small inputs. The race runtime adds allocations of its
// own, hence the build tag.

// TestOracleDistanceZeroAlloc: steady-state point queries on the tree,
// hierarchy, and table oracles allocate nothing.
func TestOracleDistanceZeroAlloc(t *testing.T) {
	for _, f := range tableOracles {
		op := lookupDistanceOp(t, f.build(t))
		if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
			t.Errorf("%s oracle point query: %.1f allocs/op, want 0", f.name, allocs)
		}
	}
}

// TestFillLaplaceZeroAlloc: the serial crypto and the seeded block
// samplers allocate nothing per block.
func TestFillLaplaceZeroAlloc(t *testing.T) {
	dst := make([]float64, 1<<12)
	for name, src := range map[string]dp.NoiseSource{
		"crypto-serial": dp.NewSerialCryptoNoise(),
		"seeded":        dp.NewSeededNoise(1),
	} {
		if allocs := testing.AllocsPerRun(200, func() { src.FillLaplace(1, dst) }); allocs != 0 {
			t.Errorf("%s FillLaplace: %.1f allocs/op, want 0", name, allocs)
		}
	}
}
