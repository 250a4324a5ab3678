//go:build perfguard

package index

import (
	"testing"

	"repro/internal/perfguard"
)

// TestHubLabelAndPHASTSpeedup: on the 100,800-edge grid, a hub-label
// point query beats the CH bidirectional search >= 5x, and one PHAST
// sweep beats the same 512 targets asked per pair >= 3x. Both sides
// come from one HL build and the hierarchy it retains. Best of 2 runs
// of 50 ops per side.
func TestHubLabelAndPHASTSpeedup(t *testing.T) {
	g, w := benchGraph(t)
	idx, err := Build(g, w, Options{Mode: HL})
	if err != nil {
		t.Fatal(err)
	}
	hl := idx.(*hlIndex)
	chPoint := perfguard.BestPerOp(2, 50, distanceOp(hl.ch))
	hlPoint := perfguard.BestPerOp(2, 50, distanceOp(hl))
	speedup := float64(chPoint) / float64(hlPoint)
	t.Logf("hub-label point speedup over CH: %.1fx (ch %v, hl %v)", speedup, chPoint, hlPoint)
	if speedup < 5 {
		t.Errorf("hub-label point query %.1fx < 5x over the CH search", speedup)
	}
	perPair, phast := oneToManyOps(hl.ch)
	batch := perfguard.BestPerOp(2, 50, perPair)
	sweep := perfguard.BestPerOp(2, 50, phast)
	speedup = float64(batch) / float64(sweep)
	t.Logf("PHAST sweep speedup over per-pair CH: %.1fx (per-pair %v, sweep %v)", speedup, batch, sweep)
	if speedup < 3 {
		t.Errorf("PHAST sweep %.1fx < 3x over per-pair CH queries", speedup)
	}
}
