//go:build perfguard

package repro_test

import (
	"testing"

	"repro/dpgraph"
	"repro/internal/dp"
	"repro/internal/perfguard"
)

// TestParallelReleaseSpeedup: the sharded crypto fill delivers >= 4x
// the serial path's wall clock on a >= 1M-edge release. Best of 3 runs
// of 5 releases per side.
func TestParallelReleaseSpeedup(t *testing.T) {
	perfguard.RequireProcs(t, 8, "with fewer cores the serial and sharded paths coincide")
	serial := perfguard.BestPerOp(3, 5, releaseOp(t, dp.NewSerialCryptoNoise))
	parallel := perfguard.BestPerOp(3, 5, releaseOp(t, dp.NewCryptoNoise))
	speedup := float64(serial) / float64(parallel)
	t.Logf("parallel release speedup: %.2fx (serial %v, parallel %v)", speedup, serial, parallel)
	if speedup < 4 {
		t.Errorf("parallel release speedup %.2fx < 4x", speedup)
	}
}

// TestIndexedOracleSpeedup: on the 100,800-edge release, the CH oracle
// answers point queries >= 10x faster than per-query Dijkstra. The
// pairs never repeat, so the CH oracle's result cache never answers.
// Best of 2 runs of 30 queries per side.
func TestIndexedOracleSpeedup(t *testing.T) {
	plain := perfguard.BestPerOp(2, 30, oracleDistanceOp(t, gridOracle(t, 225, dpgraph.IndexOff)))
	indexed := perfguard.BestPerOp(2, 30, oracleDistanceOp(t, gridOracle(t, 225, dpgraph.IndexCH)))
	speedup := float64(plain) / float64(indexed)
	t.Logf("indexed oracle speedup: %.1fx (unindexed %v, ch %v per query)", speedup, plain, indexed)
	if speedup < 10 {
		t.Errorf("CH oracle speedup %.1fx < 10x over unindexed Dijkstra", speedup)
	}
}

// TestSnapshotRestoreSpeedup: unsealing the 100,800-edge CH release
// reaches its first answer >= 50x faster than re-materializing it.
// Best of 2 runs of 3 restores per side.
func TestSnapshotRestoreSpeedup(t *testing.T) {
	rematerialize, unseal, _ := restoreOps(t)
	remat := perfguard.BestPerOp(2, 3, rematerialize)
	unsealed := perfguard.BestPerOp(2, 3, unseal)
	speedup := float64(remat) / float64(unsealed)
	t.Logf("snapshot restore speedup: %.1fx (rematerialize %v, unseal %v)", speedup, remat, unsealed)
	if speedup < 50 {
		t.Errorf("snapshot restore %.1fx < 50x over re-materialization", speedup)
	}
}
