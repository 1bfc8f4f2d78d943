package core

import (
	"runtime"
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

// TestPrioritizeBytesPerJob pins the bytes one Prioritize call on the
// paper's SDSS dag allocates, as a share of its 48,013 jobs. Component
// windows hold no pointers and the Recurse phase freezes each one into
// a reused dag.View, so the call allocates about 370 B per job (18 MB);
// with a frozen dag.Frozen header and a name table per component, as
// components were once kept, it allocated 533 B per job (25.6 MB),
// which the pin of 448 B per job rejects.
func TestPrioritizeBytesPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("schedules the 48k-job SDSS dag several times")
	}
	g := workloads.PaperSDSS()
	var sink int
	sink += len(Prioritize(g).Order)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sink += len(Prioritize(g).Order)
	}
	runtime.ReadMemStats(&after)
	perJob := float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(g.NumNodes())
	t.Logf("%d jobs: %.0f B per job", g.NumNodes(), perJob)
	if perJob > 448 {
		t.Fatalf("Prioritize allocated %.0f B per job on SDSS; the pin is 448", perJob)
	}
	_ = sink
}
