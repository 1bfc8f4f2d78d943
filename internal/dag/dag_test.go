package dag

import (
	"fmt"
	"strings"
	"testing"
)

// buildNamedB creates a builder from arcs written as "a>b".
func buildNamedB(t testing.TB, nodes []string, arcs ...string) *Builder {
	t.Helper()
	b := New()
	for _, n := range nodes {
		b.AddNode(n)
	}
	for _, a := range arcs {
		parts := strings.Split(a, ">")
		if len(parts) != 2 {
			t.Fatalf("bad arc spec %q", a)
		}
		u, v := b.IndexOf(parts[0]), b.IndexOf(parts[1])
		if u < 0 || v < 0 {
			t.Fatalf("unknown node in arc %q", a)
		}
		b.MustAddArc(u, v)
	}
	return b
}

// buildNamed creates a frozen graph from arcs written as "a>b".
func buildNamed(t testing.TB, nodes []string, arcs ...string) *Frozen {
	t.Helper()
	return buildNamedB(t, nodes, arcs...).MustFreeze()
}

// chain builds a path graph v0 -> v1 -> ... -> v(n-1).
func chain(n int) *Frozen {
	b := New()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprintf("v%d", i))
	}
	for i := 0; i+1 < n; i++ {
		b.MustAddArc(i, i+1)
	}
	return b.MustFreeze()
}

func TestAddNodeDeduplicates(t *testing.T) {
	b := New()
	a := b.AddNode("a")
	bb := b.AddNode("b")
	a2 := b.AddNode("a")
	if a != a2 {
		t.Fatalf("duplicate name returned new index %d != %d", a2, a)
	}
	if b.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", b.NumNodes())
	}
	if b.Name(bb) != "b" || b.IndexOf("b") != bb {
		t.Fatal("name/index round trip broken")
	}
	if b.IndexOf("zzz") != -1 {
		t.Fatal("IndexOf of unknown name should be -1")
	}
	g := b.MustFreeze()
	if g.Name(bb) != "b" || g.IndexOf("b") != bb || g.IndexOf("zzz") != -1 {
		t.Fatal("frozen name/index round trip broken")
	}
}

func TestAddArcErrors(t *testing.T) {
	b := New()
	a, bb := b.AddNode("a"), b.AddNode("b")
	if err := b.AddArc(a, a); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AddArc(a, bb); err != nil {
		t.Fatalf("first arc rejected: %v", err)
	}
	if err := b.AddArc(a, bb); err == nil {
		t.Fatal("duplicate arc accepted")
	}
	if b.NumArcs() != 1 {
		t.Fatalf("NumArcs = %d, want 1", b.NumArcs())
	}
	if !b.HasArc(a, bb) || b.HasArc(bb, a) {
		t.Fatal("builder HasArc wrong")
	}
}

func TestAddArcOutOfRangePanics(t *testing.T) {
	b := New()
	b.AddNode("a")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range node")
		}
	}()
	_ = b.AddArc(0, 5)
}

func TestDegreesSourcesSinks(t *testing.T) {
	g := buildNamed(t, []string{"a", "b", "c", "d", "e"}, "a>b", "c>d", "c>e")
	if got := g.Sources(); len(got) != 2 || g.Name(int(got[0])) != "a" || g.Name(int(got[1])) != "c" {
		t.Fatalf("Sources = %v", got)
	}
	if got := g.Sinks(); len(got) != 3 {
		t.Fatalf("Sinks = %v", got)
	}
	c := g.IndexOf("c")
	if g.OutDegree(c) != 2 || g.InDegree(c) != 0 || !g.IsSource(c) || g.IsSink(c) {
		t.Fatal("degree bookkeeping wrong for c")
	}
	d := g.IndexOf("d")
	if !g.IsSink(d) || g.InDegree(d) != 1 {
		t.Fatal("degree bookkeeping wrong for d")
	}
	if !g.HasArc(c, d) || g.HasArc(d, c) {
		t.Fatal("HasArc wrong")
	}
}

func TestTopoChain(t *testing.T) {
	g := chain(10)
	for i, v := range g.Topo() {
		if int(v) != i {
			t.Fatalf("chain topo order %v", g.Topo())
		}
	}
	for v, p := range g.TopoPositions() {
		if int(p) != v {
			t.Fatalf("TopoPositions %v", g.TopoPositions())
		}
	}
}

func TestTopoRespectsArcs(t *testing.T) {
	g := buildNamed(t, []string{"a", "b", "c", "d", "e", "f"},
		"a>c", "b>c", "c>d", "c>e", "e>f", "b>f")
	pos := g.TopoPositions()
	for _, a := range g.Arcs() {
		if pos[a.From] >= pos[a.To] {
			t.Fatalf("arc %v violated in order %v", a, g.Topo())
		}
	}
}

func TestFreezeDetectsCycle(t *testing.T) {
	b := New()
	a, bb, c := b.AddNode("a"), b.AddNode("b"), b.AddNode("c")
	b.MustAddArc(a, bb)
	b.MustAddArc(bb, c)
	b.MustAddArc(c, a)
	if _, err := b.Freeze(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestFreezePreservesAdjacencyOrder(t *testing.T) {
	// AddArc order is the contract: children and parents must list
	// neighbours in insertion order, exactly like the pre-CSR Graph.
	b := New()
	for _, n := range []string{"a", "b", "c", "d"} {
		b.AddNode(n)
	}
	b.MustAddArc(0, 3) // a>d
	b.MustAddArc(0, 1) // a>b
	b.MustAddArc(2, 3) // c>d
	b.MustAddArc(1, 3) // b>d
	g := b.MustFreeze()
	if got := g.Children(0); len(got) != 2 || got[0] != 3 || got[1] != 1 {
		t.Fatalf("Children(a) = %v, want [3 1] (insertion order)", got)
	}
	if got := g.Parents(3); len(got) != 3 || got[0] != 0 || got[1] != 2 || got[2] != 1 {
		t.Fatalf("Parents(d) = %v, want [0 2 1] (insertion order)", got)
	}
}

func TestLevelsAndCriticalPath(t *testing.T) {
	// diamond with a tail: a -> {b,c} -> d -> e
	g := buildNamed(t, []string{"a", "b", "c", "d", "e"},
		"a>b", "a>c", "b>d", "c>d", "d>e")
	level, counts := g.Levels()
	want := map[string]int{"a": 0, "b": 1, "c": 1, "d": 2, "e": 3}
	for name, wl := range want {
		if level[g.IndexOf(name)] != wl {
			t.Fatalf("level(%s) = %d, want %d", name, level[g.IndexOf(name)], wl)
		}
	}
	if len(counts) != 4 || counts[1] != 2 {
		t.Fatalf("level counts = %v", counts)
	}
	if g.CriticalPathLength() != 4 {
		t.Fatalf("CriticalPathLength = %d, want 4", g.CriticalPathLength())
	}
	if g.MaxLevelWidth() != 2 {
		t.Fatalf("MaxLevelWidth = %d, want 2", g.MaxLevelWidth())
	}
}

func TestLevelsEmpty(t *testing.T) {
	g := New().MustFreeze()
	if g.CriticalPathLength() != 0 || g.MaxLevelWidth() != 0 {
		t.Fatal("empty graph metrics should be zero")
	}
}

func TestReachableAndHasPath(t *testing.T) {
	g := buildNamed(t, []string{"a", "b", "c", "d", "x"},
		"a>b", "b>c", "a>d")
	r := g.Reachable(g.IndexOf("a"))
	if r.Count() != 4 || r.Contains(g.IndexOf("x")) {
		t.Fatalf("Reachable(a) = %v", r)
	}
	if !g.HasPath(g.IndexOf("a"), g.IndexOf("c")) {
		t.Fatal("path a->c missing")
	}
	if g.HasPath(g.IndexOf("c"), g.IndexOf("a")) {
		t.Fatal("reverse path reported")
	}
	if g.HasPath(g.IndexOf("a"), g.IndexOf("a")) {
		t.Fatal("HasPath(v,v) should be false without a cycle")
	}
	if g.HasPath(g.IndexOf("a"), g.IndexOf("x")) {
		t.Fatal("path to isolated node reported")
	}
}

func TestUndirectedComponents(t *testing.T) {
	g := buildNamed(t, []string{"a", "b", "c", "d", "e"}, "a>b", "c>d")
	comp, n := g.UndirectedComponents()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[g.IndexOf("a")] != comp[g.IndexOf("b")] {
		t.Fatal("a,b should share a component")
	}
	if comp[g.IndexOf("a")] == comp[g.IndexOf("c")] {
		t.Fatal("a,c should differ")
	}
	if comp[g.IndexOf("e")] == comp[g.IndexOf("a")] || comp[g.IndexOf("e")] == comp[g.IndexOf("c")] {
		t.Fatal("isolated node should be its own component")
	}
}

func TestIsBipartiteDag(t *testing.T) {
	bip := buildNamed(t, []string{"u1", "u2", "v1", "v2"}, "u1>v1", "u1>v2", "u2>v2")
	if !bip.IsBipartiteDag() {
		t.Fatal("two-level dag not recognized as bipartite")
	}
	three := buildNamed(t, []string{"a", "b", "c"}, "a>b", "b>c")
	if three.IsBipartiteDag() {
		t.Fatal("chain of 3 wrongly bipartite")
	}
	single := buildNamed(t, []string{"a"})
	if single.IsBipartiteDag() {
		t.Fatal("singleton wrongly bipartite")
	}
	if New().MustFreeze().IsBipartiteDag() {
		t.Fatal("empty graph wrongly bipartite")
	}
}

func TestBuilderReusableAfterFreeze(t *testing.T) {
	// A Freeze snapshot must not alias builder growth: adding nodes and
	// arcs afterwards leaves the frozen view untouched.
	b := buildNamedB(t, []string{"a", "b"}, "a>b")
	g := b.MustFreeze()
	b.AddNode("z")
	b.MustAddArc(b.IndexOf("b"), b.IndexOf("z"))
	if g.NumNodes() != 2 || g.NumArcs() != 1 {
		t.Fatal("mutating builder affected frozen snapshot")
	}
	if g.IndexOf("z") != -1 {
		t.Fatal("frozen snapshot sees node added after Freeze")
	}
	g2 := b.MustFreeze()
	if g2.NumNodes() != 3 || g2.NumArcs() != 2 {
		t.Fatal("second freeze lost builder growth")
	}
}

func TestReverse(t *testing.T) {
	g := buildNamed(t, []string{"a", "b", "c"}, "a>b", "b>c")
	r := g.Reverse()
	if !r.HasArc(r.IndexOf("b"), r.IndexOf("a")) || !r.HasArc(r.IndexOf("c"), r.IndexOf("b")) {
		t.Fatal("Reverse did not flip arcs")
	}
	if r.NumArcs() != 2 {
		t.Fatalf("Reverse NumArcs = %d", r.NumArcs())
	}
	if !g.HasArc(g.IndexOf("a"), g.IndexOf("b")) {
		t.Fatal("Reverse mutated original")
	}
	pos := r.TopoPositions()
	for _, a := range r.Arcs() {
		if pos[a.From] >= pos[a.To] {
			t.Fatalf("reversed topo order invalid at arc %v", a)
		}
	}
}

func TestArcsSorted(t *testing.T) {
	g := buildNamed(t, []string{"a", "b", "c"}, "b>c", "a>c", "a>b")
	arcs := g.Arcs()
	for i := 1; i < len(arcs); i++ {
		if arcs[i-1].From > arcs[i].From ||
			(arcs[i-1].From == arcs[i].From && arcs[i-1].To >= arcs[i].To) {
			t.Fatalf("arcs not sorted: %v", arcs)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g := buildNamed(t, []string{"a", "b"}, "a>b")
	dot := g.DOT("t", func(v int) string {
		if g.Name(v) == "a" {
			return "color=red"
		}
		return ""
	})
	for _, want := range []string{"digraph \"t\"", `"a" [color=red];`, `"a" -> "b";`} {
		if !strings.Contains(dot, want) {
			t.Fatalf("DOT missing %q:\n%s", want, dot)
		}
	}
}

func TestSortedNames(t *testing.T) {
	g := buildNamed(t, []string{"z", "a", "m"})
	got := g.SortedNames()
	if got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Fatalf("SortedNames = %v", got)
	}
}
