package core

import (
	"testing"

	"repro/internal/workloads"
)

// TestPrioritizeAllocsPerComponent pins the allocation count of one
// Prioritize call on the paper's SDSS dag, which decomposes into 24,009
// components. Components are windows over storage shared by the whole
// decomposition, and the Recurse phase cuts every schedule and profile
// from per-call slabs on one reused scratch, so the count is a few
// hundred per call. The pin is a share of the component count: one
// allocation per component creeping back into Divide, Recurse or
// Combine exceeds it many times over.
func TestPrioritizeAllocsPerComponent(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the 48k-job SDSS dag several times")
	}
	g := workloads.PaperSDSS()
	comps := len(Prioritize(g).Components)
	var sink int
	allocs := testing.AllocsPerRun(3, func() {
		sink += len(Prioritize(g).Order)
	})
	t.Logf("%d components: %.0f allocations (%.4f per component)", comps, allocs, allocs/float64(comps))
	if limit := float64(comps) / 64; allocs > limit {
		t.Fatalf("Prioritize made %.0f allocations on %d components; the pin is %.0f (components/64)", allocs, comps, limit)
	}
	_ = sink
}
