package decompose

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/workloads"
)

func build(t testing.TB, nodes []string, arcs ...string) *dag.Frozen {
	t.Helper()
	b := dag.New()
	for _, n := range nodes {
		b.AddNode(n)
	}
	for _, a := range arcs {
		parts := strings.Split(a, ">")
		b.MustAddArc(b.IndexOf(parts[0]), b.IndexOf(parts[1]))
	}
	return b.MustFreeze()
}

func names(g *dag.Frozen, r *Result, i int) []string {
	var out []string
	for _, v := range r.Nodes(i) {
		out = append(out, g.Name(v))
	}
	sort.Strings(out)
	return out
}

// checkInvariants verifies the structural contract of a decomposition.
func checkInvariants(t *testing.T, g *dag.Frozen, r *Result) {
	t.Helper()
	if r.Super.NumNodes() != len(r.Components) {
		t.Fatalf("superdag has %d nodes for %d components", r.Super.NumNodes(), len(r.Components))
	}
	covered := make([]bool, g.NumNodes())
	scheduled := 0
	for i, c := range r.Components {
		if c.Index != i {
			t.Fatalf("component %d has Index %d", i, c.Index)
		}
		sub := r.Sub(i)
		if len(r.Nodes(i)) != sub.NumNodes() {
			t.Fatalf("component %d node bookkeeping inconsistent", i)
		}
		nonSinks := 0
		for s := 0; s < sub.NumNodes(); s++ {
			if sub.OutDegree(s) > 0 {
				nonSinks++
			}
		}
		if nonSinks != c.NonSinkCount {
			t.Fatalf("component %d NonSinkCount %d, actual %d", i, c.NonSinkCount, nonSinks)
		}
		for _, v := range r.Nodes(i) {
			covered[v] = true
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if !covered[v] {
			t.Fatalf("node %s covered by no component", g.Name(v))
		}
		if ci := r.ScheduledIn[v]; ci == -1 {
			if !g.IsSink(v) {
				t.Fatalf("non-sink %s has no scheduling component", g.Name(v))
			}
		} else {
			scheduled++
			if g.IsSink(v) {
				t.Fatalf("dag sink %s scheduled in component %d", g.Name(v), ci)
			}
		}
	}
	if scheduled+len(g.Sinks()) != g.NumNodes() {
		t.Fatalf("scheduled %d + sinks %d != nodes %d", scheduled, len(g.Sinks()), g.NumNodes())
	}
	// Every component's scheduled set must equal its subgraph non-sinks.
	for i := range r.Components {
		sub := r.Sub(i)
		for s, v := range r.Nodes(i) {
			if sub.OutDegree(s) > 0 && r.ScheduledIn[v] != i {
				t.Fatalf("non-sink %s of component %d scheduled in %d", g.Name(v), i, r.ScheduledIn[v])
			}
		}
	}
}

func TestFig3Dag(t *testing.T) {
	g := build(t, []string{"a", "b", "c", "d", "e"}, "a>b", "c>d", "c>e")
	r := Decompose(g)
	checkInvariants(t, g, r)
	if len(r.Components) != 2 {
		t.Fatalf("got %d components, want 2", len(r.Components))
	}
	if got := names(g, r, 0); !eq(got, []string{"a", "b"}) {
		t.Fatalf("C0 = %v", got)
	}
	if got := names(g, r, 1); !eq(got, []string{"c", "d", "e"}) {
		t.Fatalf("C1 = %v", got)
	}
	if r.Super.NumArcs() != 0 {
		t.Fatal("independent components should have no superdag arcs")
	}
	for _, c := range r.Components {
		if !c.Bipartite {
			t.Fatalf("component %d should be bipartite", c.Index)
		}
	}
}

func TestChainSharedNode(t *testing.T) {
	g := build(t, []string{"a", "b", "c"}, "a>b", "b>c")
	r := Decompose(g)
	checkInvariants(t, g, r)
	if len(r.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(r.Components))
	}
	if !eq(names(g, r, 0), []string{"a", "b"}) || !eq(names(g, r, 1), []string{"b", "c"}) {
		t.Fatalf("components = %v, %v", names(g, r, 0), names(g, r, 1))
	}
	if !r.Super.HasArc(0, 1) {
		t.Fatal("superdag must order C0 before C1 (shared node b)")
	}
	if r.ScheduledIn[g.IndexOf("a")] != 0 || r.ScheduledIn[g.IndexOf("b")] != 1 || r.ScheduledIn[g.IndexOf("c")] != -1 {
		t.Fatalf("ScheduledIn = %v", r.ScheduledIn)
	}
}

func TestDiamond(t *testing.T) {
	g := build(t, []string{"a", "b", "c", "d"}, "a>b", "a>c", "b>d", "c>d")
	r := Decompose(g)
	checkInvariants(t, g, r)
	if len(r.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(r.Components))
	}
	if !eq(names(g, r, 0), []string{"a", "b", "c"}) {
		t.Fatalf("C0 = %v", names(g, r, 0))
	}
	if !eq(names(g, r, 1), []string{"b", "c", "d"}) {
		t.Fatalf("C1 = %v", names(g, r, 1))
	}
}

func TestShortcutRemovedFirst(t *testing.T) {
	g := build(t, []string{"a", "b", "c"}, "a>b", "b>c", "a>c")
	r := Decompose(g)
	checkInvariants(t, g, r)
	if len(r.Shortcuts) != 1 {
		t.Fatalf("shortcuts = %v", r.Shortcuts)
	}
	if r.Reduced.NumArcs() != 2 {
		t.Fatalf("reduced arcs = %d", r.Reduced.NumArcs())
	}
	if len(r.Components) != 2 {
		t.Fatalf("components = %d, want 2 (chain)", len(r.Components))
	}
}

func TestIsolatedNodes(t *testing.T) {
	g := build(t, []string{"x", "y"})
	r := Decompose(g)
	checkInvariants(t, g, r)
	if len(r.Components) != 2 {
		t.Fatalf("components = %d", len(r.Components))
	}
	for i, c := range r.Components {
		if c.NonSinkCount != 0 || len(r.Nodes(i)) != 1 {
			t.Fatalf("singleton component wrong: %+v", c)
		}
	}
}

func TestEmptyGraph(t *testing.T) {
	r := Decompose(dag.New().MustFreeze())
	if len(r.Components) != 0 || r.Super.NumNodes() != 0 {
		t.Fatal("empty graph should decompose to nothing")
	}
}

// Crossed three-level structure where no source admits a bipartite block
// in round one, forcing the general containment-minimal path.
func TestGeneralPathCrossed(t *testing.T) {
	g := build(t, []string{"s1", "s2", "x1", "x2", "y1", "y2"},
		"s1>y2", "s1>x1", "s2>y1", "s2>x2", "x1>y1", "x2>y2")
	if sc := g.ShortcutArcs(); len(sc) != 0 {
		t.Fatalf("test premise broken: shortcuts %v", sc)
	}
	r := Decompose(g)
	checkInvariants(t, g, r)
	if len(r.Components) != 1 {
		t.Fatalf("components = %d, want 1 merged component", len(r.Components))
	}
	c := r.Components[0]
	if c.Bipartite {
		t.Fatal("crossed component wrongly marked bipartite")
	}
	if len(r.Nodes(0)) != 6 || c.NonSinkCount != 4 {
		t.Fatalf("component = %+v", c)
	}
}

// The general path must also be reachable mid-decomposition: a clean
// bipartite front followed by the crossed structure.
func TestGeneralPathAfterBipartiteRounds(t *testing.T) {
	g := build(t, []string{"r", "s1", "s2", "x1", "x2", "y1", "y2"},
		"r>s1", "r>s2",
		"s1>y2", "s1>x1", "s2>y1", "s2>x2", "x1>y1", "x2>y2")
	r := Decompose(g)
	checkInvariants(t, g, r)
	if len(r.Components) != 2 {
		t.Fatalf("components = %d, want 2", len(r.Components))
	}
	if !r.Components[0].Bipartite || r.Components[1].Bipartite {
		t.Fatalf("bipartite flags = %v, %v", r.Components[0].Bipartite, r.Components[1].Bipartite)
	}
	if !r.Super.HasArc(0, 1) {
		t.Fatal("superdag must chain the two components")
	}
}

// Regression: a dependency that flows out of a component through an
// interior non-sink must still be reflected in the superdag, even though
// the two components share no node. Here x1 is an interior non-sink of
// the crossed component and w (its child) is executed by a later
// component disjoint from it.
func TestSuperdagInteriorNonSinkDependency(t *testing.T) {
	g := build(t, []string{"s1", "s2", "x1", "x2", "y1", "y2", "w", "z"},
		"s1>y2", "s1>x1", "s2>y1", "s2>x2", "x1>y1", "x2>y2",
		"x1>w", "w>z")
	r := Decompose(g)
	checkInvariants(t, g, r)
	ci := r.ScheduledIn[g.IndexOf("x1")]
	cj := r.ScheduledIn[g.IndexOf("w")]
	if ci == cj {
		t.Fatalf("test premise broken: x1 and w in same component %d", ci)
	}
	if !r.Super.HasArc(ci, cj) && !r.Super.HasPath(ci, cj) {
		t.Fatalf("superdag misses dependency C%d -> C%d", ci, cj)
	}
}

// TestFastPathMatchesGeneralPath: production (the Section 3.5 bipartite
// fast path, with the SCC general round where it finds no block) and
// the per-source general oracle it short-cuts must detach the same
// components (as node sets), on random layered dags and on the four
// paper dags at scales where the oracle runs in about a second in
// total. Every round of the oracle also checks that the SCC round picks
// the component the per-source closures pick.
func TestFastPathMatchesGeneralPath(t *testing.T) {
	gs := make(map[string]*dag.Frozen)
	r := rng.New(31)
	for trial := 0; trial < 25; trial++ {
		gs[fmt.Sprintf("trial %d", trial)] = randomLayered(r, 3+r.Intn(4), 1+r.Intn(5), 0.4)
	}
	for name, scale := range map[string]int{"airsn": 1, "inspiral": 2, "montage": 10, "sdss": 100} {
		g, err := workloads.ByName(name, scale)
		if err != nil {
			t.Fatal(err)
		}
		gs[fmt.Sprintf("%s/%d", name, scale)] = g
	}
	for name, g := range gs {
		fast := Decompose(g)
		slow := generalDecomposition(t, g, true)
		checkInvariants(t, g, fast)
		checkInvariants(t, g, slow)
		if fs, ss := componentSignatures(fast), componentSignatures(slow); fmt.Sprint(fs) != fmt.Sprint(ss) {
			t.Fatalf("%s: fast path detaches %d components, general path %d, and the node sets differ", name, len(fs), len(ss))
		}
	}
}

func componentSignatures(r *Result) []string {
	sigs := make([]string, len(r.Components))
	for i := range r.Components {
		sigs[i] = fmt.Sprint(r.Nodes(i))
	}
	sort.Strings(sigs)
	return sigs
}

// randomLayered builds a layered dag: width nodes per layer, arcs only
// between consecutive layers, each child picks >=1 parent.
func randomLayered(r *rng.Source, layers, width int, p float64) *dag.Frozen {
	g := dag.New()
	ids := make([][]int, layers)
	for l := 0; l < layers; l++ {
		ids[l] = make([]int, width)
		for w := 0; w < width; w++ {
			ids[l][w] = g.AddNode(fmt.Sprintf("L%dW%d", l, w))
		}
	}
	for l := 1; l < layers; l++ {
		for w := 0; w < width; w++ {
			linked := false
			for pw := 0; pw < width; pw++ {
				if r.Float64() < p {
					g.MustAddArc(ids[l-1][pw], ids[l][w])
					linked = true
				}
			}
			if !linked {
				g.MustAddArc(ids[l-1][r.Intn(width)], ids[l][w])
			}
		}
	}
	return g.MustFreeze()
}

func TestRandomDagsInvariants(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 30; trial++ {
		n := 2 + r.Intn(40)
		b := dag.New()
		for i := 0; i < n; i++ {
			b.AddNode(fmt.Sprintf("n%d", i))
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if r.Float64() < 0.15 {
					b.MustAddArc(i, j)
				}
			}
		}
		g := b.MustFreeze()
		res := Decompose(g)
		checkInvariants(t, g, res)
	}
}

// The superdag must respect data dependencies: if a node is scheduled in
// component j and one of its parents is scheduled in component i != j,
// then the superdag must order i before j (path, not necessarily arc).
func TestSuperdagRespectsDependencies(t *testing.T) {
	r := rng.New(55)
	for trial := 0; trial < 20; trial++ {
		g := randomLayered(r, 4, 4, 0.35)
		res := Decompose(g)
		for v := 0; v < g.NumNodes(); v++ {
			cj := res.ScheduledIn[v]
			if cj == -1 {
				continue
			}
			for _, p := range g.Parents(v) {
				ci := res.ScheduledIn[int(p)]
				if ci == -1 || ci == cj {
					continue
				}
				if ci != cj && !res.Super.HasPath(ci, cj) && !res.Super.HasArc(ci, cj) {
					t.Fatalf("trial %d: parent %s in C%d, child %s in C%d, no superdag path",
						trial, g.Name(int(p)), ci, g.Name(v), cj)
				}
			}
		}
	}
}

func eq(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkDecomposeLayered(b *testing.B) {
	r := rng.New(9)
	g := randomLayered(r, 10, 50, 0.1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(g)
	}
}

// BenchmarkAblationFastPath is the Section 3.5 decomposition exhibit:
// the bipartite fast path turned SDSS decomposition from days into
// minutes. "off" times the per-source general oracle (every component
// a smallest closure, each closure computed from scratch), on SDSS/40
// so the comparison completes. It fails if the two detach different
// components.
func BenchmarkAblationFastPath(b *testing.B) {
	g, err := workloads.ByName("sdss", 40)
	if err != nil {
		b.Fatal(err)
	}
	sigs := make(map[string]string)
	for _, tc := range []struct {
		name string
		fast bool
	}{{"on", true}, {"off", false}} {
		b.Run(tc.name, func(b *testing.B) {
			var r *Result
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if tc.fast {
					r = Decompose(g)
				} else {
					r = generalDecomposition(b, g, false)
				}
			}
			b.StopTimer()
			sigs[tc.name] = fmt.Sprint(componentSignatures(r))
		})
	}
	if on, off := sigs["on"], sigs["off"]; on != "" && off != "" && on != off {
		b.Fatal("fast and general decomposition detach different components on SDSS/40")
	}
}
