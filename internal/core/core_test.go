package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/dag"
	"repro/internal/icopt"
	"repro/internal/rng"
)

func build(t testing.TB, nodes []string, arcs ...string) *dag.Frozen {
	t.Helper()
	g := dag.New()
	for _, n := range nodes {
		g.AddNode(n)
	}
	for _, a := range arcs {
		parts := strings.Split(a, ">")
		g.MustAddArc(g.IndexOf(parts[0]), g.IndexOf(parts[1]))
	}
	return g.MustFreeze()
}

func orderNames(g *dag.Frozen, order []int) []string {
	out := make([]string, len(order))
	for i, v := range order {
		out[i] = g.Name(v)
	}
	return out
}

// optimalTrace is the exhaustive IC-optimality envelope (see
// internal/icopt for the implementation).
func optimalTrace(g *dag.Frozen) []int {
	env, err := icopt.OptimalTrace(g)
	if err != nil {
		panic(err)
	}
	return env
}

func TestEligibilityTraceChain(t *testing.T) {
	g := build(t, []string{"a", "b", "c"}, "a>b", "b>c")
	tr, err := EligibilityTrace(g, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 1, 0}
	for i := range want {
		if tr[i] != want[i] {
			t.Fatalf("trace = %v, want %v", tr, want)
		}
	}
}

func TestEligibilityTraceErrors(t *testing.T) {
	g := build(t, []string{"a", "b"}, "a>b")
	if _, err := EligibilityTrace(g, []int{1}); err == nil {
		t.Fatal("executing child before parent must fail")
	}
	if _, err := EligibilityTrace(g, []int{0, 0}); err == nil {
		t.Fatal("double execution must fail")
	}
	if _, err := EligibilityTrace(g, []int{5}); err == nil {
		t.Fatal("out-of-range job must fail")
	}
}

func TestEligibilityTracePrefix(t *testing.T) {
	g := build(t, []string{"a", "b", "c"}, "a>b", "a>c")
	tr, err := EligibilityTrace(g, []int{0}) // only the source
	if err != nil {
		t.Fatal(err)
	}
	if len(tr) != 2 || tr[0] != 1 || tr[1] != 2 {
		t.Fatalf("trace = %v", tr)
	}
}

func TestFIFOScheduleFig3(t *testing.T) {
	g := build(t, []string{"a", "b", "c", "d", "e"}, "a>b", "c>d", "c>e")
	got := orderNames(g, FIFOSchedule(g))
	want := []string{"a", "c", "b", "d", "e"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FIFO = %v, want %v", got, want)
		}
	}
}

func TestFIFOIsValidOrder(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 20; trial++ {
		g := randomDag(r, 2+r.Intn(30), 0.2)
		if err := ValidateExecutionOrder(g, FIFOSchedule(g)); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func TestPriorityRHandComputed(t *testing.T) {
	// Profiles of the Fig. 3 components: C0 = {a,b} (chain head),
	// C1 = {c,d,e} (fork). Worked out by hand in DESIGN.md terms:
	// executing C0 first can lose a third of the eligible jobs.
	e0 := []int{1, 1}
	e1 := []int{1, 2}
	if r := PriorityR(e0, e1); math.Abs(r-2.0/3.0) > 1e-12 {
		t.Fatalf("r(C0,C1) = %v, want 2/3", r)
	}
	if r := PriorityR(e1, e0); r != 1 {
		t.Fatalf("r(C1,C0) = %v, want 1", r)
	}
}

func TestPriorityRBounds(t *testing.T) {
	r := rng.New(5)
	for trial := 0; trial < 200; trial++ {
		ei := randomProfile(r)
		ej := randomProfile(r)
		v := PriorityR(ei, ej)
		if v < 0 || v > 1 {
			t.Fatalf("r out of [0,1]: %v for %v %v", v, ei, ej)
		}
	}
}

func TestPriorityRIdenticalSymmetric(t *testing.T) {
	r := rng.New(6)
	for trial := 0; trial < 100; trial++ {
		e := randomProfile(r)
		if PriorityR(e, e) != PriorityR(e, e) {
			t.Fatal("unstable")
		}
	}
}

func randomProfile(r *rng.Source) []int {
	n := 1 + r.Intn(6)
	p := make([]int, n+1)
	for i := range p {
		p[i] = r.Intn(5)
	}
	// a real profile has at least one eligible job before the end
	p[0]++
	return p
}

func TestPrioritizeFig3(t *testing.T) {
	g := build(t, []string{"a", "b", "c", "d", "e"}, "a>b", "c>d", "c>e")
	s := Prioritize(g)
	got := orderNames(g, s.Order)
	want := []string{"c", "a", "b", "d", "e"} // the paper's PRIO schedule
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("PRIO = %v, want %v", got, want)
		}
	}
	// Fig. 3: job c gets the highest priority value, 5.
	if s.Priority[g.IndexOf("c")] != 5 {
		t.Fatalf("priority(c) = %d, want 5", s.Priority[g.IndexOf("c")])
	}
	if s.Priority[g.IndexOf("e")] != 1 {
		t.Fatalf("priority(e) = %d, want 1", s.Priority[g.IndexOf("e")])
	}
	if err := ValidateExecutionOrder(g, s.Order); err != nil {
		t.Fatal(err)
	}
}

func TestPrioritizeICOptimalOnBlocks(t *testing.T) {
	cases := map[string]*dag.Frozen{
		"W(2,3)":   bipartite.NewW(2, 3),
		"M(2,3)":   bipartite.NewM(2, 3),
		"N(4)":     bipartite.NewN(4),
		"Cycle(4)": bipartite.NewCycle(4),
		"Clique3":  bipartite.NewClique(3, 3),
		"Fig3":     build(t, []string{"a", "b", "c", "d", "e"}, "a>b", "c>d", "c>e"),
		"diamond":  build(t, []string{"a", "b", "c", "d"}, "a>b", "a>c", "b>d", "c>d"),
		"chain4":   build(t, []string{"a", "b", "c", "d"}, "a>b", "b>c", "c>d"),
		"fork-join": build(t, []string{"s", "x", "y", "z", "j"},
			"s>x", "s>y", "s>z", "x>j", "y>j", "z>j"),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			s := Prioritize(g)
			if err := ValidateExecutionOrder(g, s.Order); err != nil {
				t.Fatal(err)
			}
			got, err := EligibilityTrace(g, s.Order)
			if err != nil {
				t.Fatal(err)
			}
			want := optimalTrace(g)
			for x := range got {
				if got[x] != want[x] {
					t.Fatalf("E(%d) = %d, optimum %d (order %v)", x, got[x], want[x], orderNames(g, s.Order))
				}
			}
		})
	}
}

func TestPrioritizeEmptyAndSingle(t *testing.T) {
	if s := Prioritize(dag.New().MustFreeze()); len(s.Order) != 0 {
		t.Fatal("empty dag should give empty schedule")
	}
	b := dag.New()
	b.AddNode("only")
	s := Prioritize(b.MustFreeze())
	if len(s.Order) != 1 || s.Priority[0] != 1 {
		t.Fatalf("singleton schedule = %+v", s)
	}
}

func TestPrioritizeValidOnRandomDags(t *testing.T) {
	r := rng.New(11)
	for trial := 0; trial < 40; trial++ {
		g := randomDag(r, 2+r.Intn(50), 0.15)
		s := Prioritize(g)
		if err := ValidateExecutionOrder(g, s.Order); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Priority must be a bijection onto [1, n].
		seen := make([]bool, g.NumNodes()+1)
		for v := 0; v < g.NumNodes(); v++ {
			p := s.Priority[v]
			if p < 1 || p > g.NumNodes() || seen[p] {
				t.Fatalf("trial %d: bad priority %d for %s", trial, p, g.Name(v))
			}
			seen[p] = true
		}
	}
}

func TestPrioritizeNeverWorseThanFIFOOnBlocks(t *testing.T) {
	// On recognized building blocks PRIO's trace dominates FIFO's.
	for name, g := range map[string]*dag.Frozen{
		"W(3,3)":   bipartite.NewW(3, 3),
		"M(3,3)":   bipartite.NewM(3, 3),
		"Cycle(5)": bipartite.NewCycle(5),
	} {
		s := Prioritize(g)
		diff, err := TraceDifference(g, s.Order, FIFOSchedule(g))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for x, d := range diff {
			if d < 0 {
				t.Fatalf("%s: PRIO below FIFO at step %d (%d)", name, x, d)
			}
		}
	}
}

func TestTraceDifferenceErrors(t *testing.T) {
	g := build(t, []string{"a", "b"}, "a>b")
	if _, err := TraceDifference(g, []int{1, 0}, []int{0, 1}); err == nil {
		t.Fatal("invalid first order accepted")
	}
	if _, err := TraceDifference(g, []int{0, 1}, []int{1, 0}); err == nil {
		t.Fatal("invalid second order accepted")
	}
	if _, err := TraceDifference(g, []int{0, 1}, []int{0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestComponentFamiliesRecognized(t *testing.T) {
	// A W-dag followed by a join: the first component should classify
	// as W, the second as M.
	b := dag.New()
	s1, s2 := b.AddNode("s1"), b.AddNode("s2")
	v1, v2, v3 := b.AddNode("v1"), b.AddNode("v2"), b.AddNode("v3")
	j := b.AddNode("j")
	b.MustAddArc(s1, v1)
	b.MustAddArc(s1, v2)
	b.MustAddArc(s2, v2)
	b.MustAddArc(s2, v3)
	b.MustAddArc(v1, j)
	b.MustAddArc(v2, j)
	b.MustAddArc(v3, j)
	s := Prioritize(b.MustFreeze())
	if len(s.Components) != 2 {
		t.Fatalf("components = %d", len(s.Components))
	}
	if s.Components[0].Family != bipartite.WDag {
		t.Fatalf("C0 family = %v, want W", s.Components[0].Family)
	}
	if s.Components[1].Family != bipartite.MDag {
		t.Fatalf("C1 family = %v, want M", s.Components[1].Family)
	}
}

func TestOutdegreeOrderValidAndSorted(t *testing.T) {
	// Non-bipartite crossed component: order must be valid and prefer
	// high out-degree among eligible jobs.
	g := build(t, []string{"s1", "s2", "x1", "x2", "y1", "y2"},
		"s1>y2", "s1>x1", "s2>y1", "s2>x2", "x1>y1", "x2>y2")
	s := Prioritize(g)
	if len(s.Components) != 1 || s.Components[0].Family != bipartite.Unknown {
		t.Fatalf("expected one unknown-family component, got %+v", s.Components)
	}
	if err := ValidateExecutionOrder(g, s.Order); err != nil {
		t.Fatal(err)
	}
	// s1 and s2 have out-degree 2; x1/x2 only become eligible later.
	first2 := orderNames(g, s.Order[:2])
	if !(first2[0] == "s1" && first2[1] == "s2") {
		t.Fatalf("first two = %v, want s1 s2", first2)
	}
}

func TestProfileInterning(t *testing.T) {
	pt := newProfileTable()
	a := pt.intern([]int{1, 2, 3})
	b := pt.intern([]int{1, 2, 3})
	c := pt.intern([]int{1, 2})
	if a != b {
		t.Fatal("identical profiles got different ids")
	}
	if a == c {
		t.Fatal("distinct profiles share an id")
	}
	// collision resistance for the textual key: [1,23] vs [12,3]
	d := pt.intern([]int{1, 23})
	e := pt.intern([]int{12, 3})
	if d == e {
		t.Fatal("profile key collision")
	}
	r1 := pt.r(a, c)
	r2 := pt.r(a, c)
	if r1 != r2 {
		t.Fatal("cache incoherent")
	}
}

func randomDag(r *rng.Source, n int, p float64) *dag.Frozen {
	g := dag.New()
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("n%d", i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Float64() < p {
				g.MustAddArc(i, j)
			}
		}
	}
	return g.MustFreeze()
}

func BenchmarkPrioritizeRandom(b *testing.B) {
	r := rng.New(1)
	g := randomDag(r, 500, 0.01)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Prioritize(g)
	}
}
