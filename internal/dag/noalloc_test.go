package dag_test

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/workloads"
)

// TestNoallocSitesAllocateNothing measures the //prio:noalloc contract
// of this package at run time, on the paper's AIRSN dag: every
// annotated function must run without a heap allocation. The noalloc
// analyzer proves the same property from the source; this pins what
// the compiler actually emitted for the sites no kernel benchmark
// reaches.
func TestNoallocSitesAllocateNothing(t *testing.T) {
	g, twin := workloads.PaperAIRSN(), workloads.PaperAIRSN()
	n := g.NumNodes()
	var arcs []dag.Arc
	for u := 0; u < n; u++ {
		for _, v := range g.Children(u) {
			arcs = append(arcs, dag.Arc{From: u, To: int(v)})
		}
	}
	// The sorts get reversed input, so every run does the full
	// quadratic amount of shifting, in slices sized up front.
	reversedArcs := make([]dag.Arc, len(arcs))
	reversedTopo := make([]int32, n)
	for i, a := range arcs {
		reversedArcs[len(arcs)-1-i] = a
	}
	for i, v := range g.Topo() {
		reversedTopo[n-1-i] = v
	}
	arcBuf := make([]dag.Arc, len(arcs))
	nodeBuf := make([]int32, n)

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
		{"insertionSortByPos", func() {
			copy(nodeBuf, reversedTopo)
			dag.InsertionSortByPos(nodeBuf, g.TopoPositions())
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
	pos := g.TopoPositions()
	for i := 1; i < n; i++ {
		if pos[nodeBuf[i-1]] > pos[nodeBuf[i]] {
			t.Fatalf("insertionSortByPos left node %d before %d", nodeBuf[i-1], nodeBuf[i])
		}
	}
	if sink == 0 {
		t.Fatal("no accessor returned anything")
	}
}
