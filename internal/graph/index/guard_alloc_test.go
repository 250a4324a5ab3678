//go:build !race

package index

import (
	"testing"

	"repro/internal/graph"
)

// TestIndexQueryZeroAlloc: steady-state hub-label and CH point queries
// and PHAST sweeps, direct or through the hub-label index, allocate
// nothing. Allocation-freedom does not depend
// on graph size, so a small grid stands in for the benchmark's; the
// race runtime adds allocations of its own, hence the build tag.
func TestIndexQueryZeroAlloc(t *testing.T) {
	g := graph.Grid(12)
	w := make([]float64, g.M())
	for i := range w {
		w[i] = 0.5 + float64(i%5)/2
	}
	idx, err := Build(g, w, Options{Mode: HL})
	if err != nil {
		t.Fatal(err)
	}
	hl := idx.(*hlIndex)
	perPair, phast := oneToManyOps(hl.ch)
	_, hlSweep := oneToManyOps(hl)
	for name, op := range map[string]func(){
		"hl point": distanceOp(hl), "ch point": distanceOp(hl.ch),
		"ch per-pair batch": perPair, "phast sweep": phast, "hl sweep": hlSweep,
	} {
		if allocs := testing.AllocsPerRun(50, op); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", name, allocs)
		}
	}
}
