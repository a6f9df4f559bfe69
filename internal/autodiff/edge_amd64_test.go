package autodiff

import (
	"math"
	"testing"
)

// TestExpLanesSelected: wherever the vector tile runs, init found an exp
// variant with math.Exp's bits, and the probes it decided on tell the fused
// and unfused sequences apart — so a variant that stopped fusing, or a probe
// set that could not see the difference, fails here rather than silently
// handing every exp back to math.Exp.
func TestExpLanesSelected(t *testing.T) {
	requireGemmVector(t)
	if !expLanes {
		t.Fatal("no exp lane variant matches math.Exp on this machine")
	}
	if !expVariantMatches(expLaneFMA) {
		t.Fatalf("the selected variant (fma=%v) no longer matches math.Exp", expLaneFMA)
	}
	if _, _, c1, _ := cpuid(1, 0); c1&cpuidFMA == 0 {
		t.Skip("no FMA: only the unfused variant can run")
	}
	plain, fused := expVariant(expProbes(), false), expVariant(expProbes(), true)
	for i := range plain {
		if math.Float64bits(plain[i]) != math.Float64bits(fused[i]) {
			return
		}
	}
	t.Fatal("the fused and unfused exp variants agree on every probe: the probes cannot pick between them")
}
