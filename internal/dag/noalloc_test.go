package dag_test

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/workloads"
)

// TestNoallocSitesAllocateNothing measures this package's zero-alloc
// contract (see the package doc) on the paper's AIRSN dag: every
// accessor and sort the contract names must run without a heap
// allocation. It covers the sites no kernel benchmark reaches.
func TestNoallocSitesAllocateNothing(t *testing.T) {
	g, twin := workloads.PaperAIRSN(), workloads.PaperAIRSN()
	n := g.NumNodes()
	var arcs []dag.Arc
	for u := 0; u < n; u++ {
		for _, v := range g.Children(u) {
			arcs = append(arcs, dag.Arc{From: u, To: int(v)})
		}
	}
	// The sort gets reversed input, so every run does the full
	// quadratic amount of shifting, in a slice sized up front.
	reversedArcs := make([]dag.Arc, len(arcs))
	for i, a := range arcs {
		reversedArcs[len(arcs)-1-i] = a
	}
	arcBuf := make([]dag.Arc, len(arcs))

	var sink int
	perNode := func(f func(v int) int) func() {
		return func() {
			for v := 0; v < n; v++ {
				sink += f(v)
			}
		}
	}
	b2i := func(b bool) int {
		if b {
			return 1
		}
		return 0
	}
	for _, tc := range []struct {
		name string
		run  func()
	}{
		{"NumNodes", func() { sink += g.NumNodes() }},
		{"NumArcs", func() { sink += g.NumArcs() }},
		{"Name", perNode(func(v int) int { return len(g.Name(v)) })},
		{"Names", func() { sink += len(g.Names()) }},
		{"Children", perNode(func(v int) int { return len(g.Children(v)) })},
		{"Parents", perNode(func(v int) int { return len(g.Parents(v)) })},
		{"OutDegree", perNode(g.OutDegree)},
		{"InDegree", perNode(g.InDegree)},
		{"IsSource", perNode(func(v int) int { return b2i(g.IsSource(v)) })},
		{"IsSink", perNode(func(v int) int { return b2i(g.IsSink(v)) })},
		{"Sources", func() { sink += len(g.Sources()) }},
		{"Topo", func() { sink += len(g.Topo()) }},
		{"TopoPositions", func() { sink += len(g.TopoPositions()) }},
		{"ChildCSR", func() {
			start, arena := g.ChildCSR()
			sink += len(start) + len(arena)
		}},
		{"HasArc", func() {
			for _, a := range arcs {
				sink += b2i(g.HasArc(a.From, a.To)) + b2i(g.HasArc(a.To, a.From))
			}
		}},
		{"IsBipartiteDag", func() { sink += b2i(g.IsBipartiteDag()) }},
		{"StructuralEq", func() { sink += b2i(g.StructuralEq(twin)) }},
		{"sortArcs", func() {
			copy(arcBuf, reversedArcs)
			dag.SortArcs(arcBuf)
		}},
	} {
		if allocs := testing.AllocsPerRun(20, tc.run); allocs != 0 {
			t.Errorf("%s: %v allocations per run, want 0", tc.name, allocs)
		}
	}

	// The runs must have done real work on a real dag.
	if !g.StructuralEq(twin) || g == twin {
		t.Fatal("two AIRSN builds are not distinct, structurally equal graphs")
	}
	for i := 1; i < len(arcBuf); i++ {
		if a, b := arcBuf[i-1], arcBuf[i]; a.From > b.From || (a.From == b.From && a.To > b.To) {
			t.Fatalf("sortArcs left %v before %v", a, b)
		}
	}
	if sink == 0 {
		t.Fatal("no accessor returned anything")
	}
}
