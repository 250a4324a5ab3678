//go:build perfguard

package serve

import (
	"testing"

	"repro/internal/perfguard"
)

// TestServeOverhead: a point query through the serve handler stays
// within 2x of the same unindexed oracle called directly, so the
// serving layer cannot swallow the release-once/query-many win. Best of
// 2 runs of 50 queries per side.
func TestServeOverhead(t *testing.T) {
	direct, served := pointOps(t, "off")
	d := perfguard.BestPerOp(2, 50, direct)
	h := perfguard.BestPerOp(2, 50, served)
	ratio := float64(h) / float64(d)
	t.Logf("serving overhead: %.2fx (direct %v, http %v)", ratio, d, h)
	if ratio > 2 {
		t.Errorf("serve hot path is %.2fx the direct oracle call, want <= 2x", ratio)
	}
}
