package bipartite

import (
	"fmt"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
)

// sinkProfile returns, for a bipartite dag and a source execution order,
// the number of eligible sinks after each prefix of the order (index x =
// x sources executed).
func sinkProfile(g *dag.Frozen, order []int) []int {
	executed := make(map[int]bool)
	prof := make([]int, len(order)+1)
	for x, u := range order {
		_ = x
		executed[u] = true
		count := 0
		for _, v := range g.Sinks() {
			all := true
			for _, p := range g.Parents(int(v)) {
				if !executed[int(p)] {
					all = false
					break
				}
			}
			if all {
				count++
			}
		}
		prof[x+1] = count
	}
	return prof
}

// bestProfile computes, for every x, the maximum over all source subsets
// of size x of the number of enabled sinks — the IC-optimality bound —
// by exhaustive search (use only for tiny dags).
func bestProfile(g *dag.Frozen, sources []int32) []int {
	s := len(sources)
	best := make([]int, s+1)
	for mask := 0; mask < 1<<s; mask++ {
		executed := make(map[int]bool)
		size := 0
		for i := 0; i < s; i++ {
			if mask&(1<<i) != 0 {
				executed[int(sources[i])] = true
				size++
			}
		}
		count := 0
		for _, v := range g.Sinks() {
			all := true
			for _, p := range g.Parents(int(v)) {
				if !executed[int(p)] {
					all = false
					break
				}
			}
			if all {
				count++
			}
		}
		if count > best[size] {
			best[size] = count
		}
	}
	return best
}

// assertICOptimal checks that the classification's source order achieves
// the exhaustive-search optimum at every step.
func assertICOptimal(t *testing.T, g *dag.Frozen, c Classification) {
	t.Helper()
	got := sinkProfile(g, c.SourceOrder)
	want := bestProfile(g, g.Sources())
	for x := range got {
		if got[x] != want[x] {
			t.Fatalf("%v order %v: E(%d) = %d, optimum %d", c.Family, c.SourceOrder, x, got[x], want[x])
		}
	}
}

func TestFig2W12(t *testing.T) {
	g := NewW(1, 2)
	c, ok := Classify(g)
	if !ok || c.Family != WDag || c.S != 1 || c.T != 2 {
		t.Fatalf("Classify((1,2)-W) = %+v, %v", c, ok)
	}
	assertICOptimal(t, g, c)
}

func TestFig2W22(t *testing.T) {
	g := NewW(2, 2)
	c, ok := Classify(g)
	if !ok || c.Family != WDag || c.S != 2 || c.T != 2 {
		t.Fatalf("Classify((2,2)-W) = %+v, %v", c, ok)
	}
	if g.NumNodes() != 5 { // 2 sources + 3 sinks
		t.Fatalf("(2,2)-W has %d nodes", g.NumNodes())
	}
	assertICOptimal(t, g, c)
}

func TestFig2M15(t *testing.T) {
	g := NewM(1, 5)
	c, ok := Classify(g)
	if !ok || c.Family != MDag || c.S != 1 || c.T != 5 {
		t.Fatalf("Classify((1,5)-M) = %+v, %v", c, ok)
	}
	if len(g.Sources()) != 5 || len(g.Sinks()) != 1 {
		t.Fatal("(1,5)-M shape wrong")
	}
	assertICOptimal(t, g, c)
}

func TestFig2M25(t *testing.T) {
	g := NewM(2, 5)
	c, ok := Classify(g)
	if !ok || c.Family != MDag || c.S != 2 || c.T != 5 {
		t.Fatalf("Classify((2,5)-M) = %+v, %v", c, ok)
	}
	if len(g.Sources()) != 9 || len(g.Sinks()) != 2 {
		t.Fatal("(2,5)-M shape wrong: want 9 sources, 2 sinks")
	}
	assertICOptimal(t, g, c)
	// The grouped order must complete one sink after 5 sources.
	prof := sinkProfile(g, c.SourceOrder)
	if prof[5] != 1 || prof[9] != 2 {
		t.Fatalf("(2,5)-M profile = %v", prof)
	}
}

func TestFig2Clique3(t *testing.T) {
	g := NewClique(3, 3)
	c, ok := Classify(g)
	if !ok || c.Family != CliqueDag || c.S != 3 || c.T != 3 {
		t.Fatalf("Classify(3-Clique) = %+v, %v", c, ok)
	}
	assertICOptimal(t, g, c)
	prof := sinkProfile(g, c.SourceOrder)
	if prof[2] != 0 || prof[3] != 3 {
		t.Fatalf("clique profile = %v", prof)
	}
}

func TestFig2Cycle4(t *testing.T) {
	g := NewCycle(4)
	c, ok := Classify(g)
	if !ok || c.Family != CycleDag || c.S != 4 {
		t.Fatalf("Classify(4-Cycle) = %+v, %v", c, ok)
	}
	assertICOptimal(t, g, c)
	prof := sinkProfile(g, c.SourceOrder)
	want := []int{0, 0, 1, 2, 4}
	for i := range want {
		if prof[i] != want[i] {
			t.Fatalf("cycle profile = %v, want %v", prof, want)
		}
	}
}

func TestFig2N4(t *testing.T) {
	g := NewN(4)
	c, ok := Classify(g)
	if !ok || c.Family != NDag || c.S != 4 {
		t.Fatalf("Classify(4-N) = %+v, %v", c, ok)
	}
	assertICOptimal(t, g, c)
	prof := sinkProfile(g, c.SourceOrder)
	for x := 0; x <= 4; x++ {
		if prof[x] != x {
			t.Fatalf("N profile = %v, want identity", prof)
		}
	}
}

func TestClassifyAllFamilySizes(t *testing.T) {
	cases := []struct {
		name   string
		g      *dag.Frozen
		family Family
		s, t   int
	}{
		{"W(3,2)", NewW(3, 2), WDag, 3, 2},
		{"W(2,3)", NewW(2, 3), WDag, 2, 3},
		{"W(4,3)", NewW(4, 3), WDag, 4, 3},
		{"W(1,4)", NewW(1, 4), WDag, 1, 4},
		{"M(3,2)", NewM(3, 2), MDag, 3, 2},
		{"M(2,3)", NewM(2, 3), MDag, 2, 3},
		{"M(4,2)", NewM(4, 2), MDag, 4, 2},
		{"N(2)", NewN(2), NDag, 2, 2},
		{"N(3)", NewN(3), NDag, 3, 3},
		{"N(6)", NewN(6), NDag, 6, 6},
		{"Cycle(3)", NewCycle(3), CycleDag, 3, 3},
		{"Cycle(5)", NewCycle(5), CycleDag, 5, 5},
		{"Clique(2,4)", NewClique(2, 4), CliqueDag, 2, 4},
		{"Clique(4,2)", NewClique(4, 2), CliqueDag, 4, 2},
		{"Clique(2,2)", NewCycle(2), CliqueDag, 2, 2}, // 2-Cycle == 2-Clique
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c, ok := Classify(tc.g)
			if !ok {
				t.Fatalf("not classified")
			}
			if c.Family != tc.family || c.S != tc.s || c.T != tc.t {
				t.Fatalf("got %v(%d,%d), want %v(%d,%d)", c.Family, c.S, c.T, tc.family, tc.s, tc.t)
			}
			if len(c.SourceOrder) != len(tc.g.Sources()) {
				t.Fatalf("order covers %d of %d sources", len(c.SourceOrder), len(tc.g.Sources()))
			}
			seen := map[int]bool{}
			for _, u := range c.SourceOrder {
				if seen[u] || !tc.g.IsSource(u) {
					t.Fatalf("order %v is not a source permutation", c.SourceOrder)
				}
				seen[u] = true
			}
			if tc.g.NumNodes() <= 14 {
				assertICOptimal(t, tc.g, c)
			}
		})
	}
}

func TestClassifyRejectsNonBipartite(t *testing.T) {
	g := dag.New()
	a, b, c := g.AddNode("a"), g.AddNode("b"), g.AddNode("c")
	g.MustAddArc(a, b)
	g.MustAddArc(b, c)
	if _, ok := Classify(g.MustFreeze()); ok {
		t.Fatal("3-chain classified")
	}
}

func TestClassifyRejectsDisconnected(t *testing.T) {
	g := dag.New()
	a, b := g.AddNode("a"), g.AddNode("b")
	c, d := g.AddNode("c"), g.AddNode("d")
	g.MustAddArc(a, b)
	g.MustAddArc(c, d)
	if _, ok := Classify(g.MustFreeze()); ok {
		t.Fatal("disconnected dag classified")
	}
}

func TestClassifyRejectsIrregular(t *testing.T) {
	// Two sources with different out-degrees sharing one sink, extra
	// private sinks — not in any family.
	g := dag.New()
	u1, u2 := g.AddNode("u1"), g.AddNode("u2")
	v1, v2, v3, v4 := g.AddNode("v1"), g.AddNode("v2"), g.AddNode("v3"), g.AddNode("v4")
	g.MustAddArc(u1, v1)
	g.MustAddArc(u1, v2)
	g.MustAddArc(u1, v3)
	g.MustAddArc(u2, v3)
	g.MustAddArc(u2, v4)
	if c, ok := Classify(g.MustFreeze()); ok {
		t.Fatalf("irregular dag classified as %v", c.Family)
	}
}

func TestClassifyRejectsThreeParentSink(t *testing.T) {
	g := dag.New()
	u1, u2, u3 := g.AddNode("u1"), g.AddNode("u2"), g.AddNode("u3")
	v1, v2, v3, v4 := g.AddNode("v1"), g.AddNode("v2"), g.AddNode("v3"), g.AddNode("v4")
	// each source: one private + the shared triple sink
	g.MustAddArc(u1, v1)
	g.MustAddArc(u2, v2)
	g.MustAddArc(u3, v3)
	g.MustAddArc(u1, v4)
	g.MustAddArc(u2, v4)
	g.MustAddArc(u3, v4)
	if c, ok := Classify(g.MustFreeze()); ok {
		t.Fatalf("triple-shared-sink dag classified as %v", c.Family)
	}
}

func TestClassifyRejectsStarOfW(t *testing.T) {
	// Three sources all sharing one sink pairwise is impossible with one
	// sink; instead: a "Y" of W links (source u0 shares a distinct sink
	// with each of u1, u2, u3) — the link structure is a star, not a path.
	g := dag.New()
	var u [4]int
	for i := range u {
		u[i] = g.AddNode(fmt.Sprintf("u%d", i))
	}
	// shared sinks s1, s2, s3 and enough private sinks to make degrees
	// uniform (t = 3): u0 shares with u1,u2,u3 -> u0 has 3 shared sinks;
	// u1..u3 get 2 private each.
	s1, s2, s3 := g.AddNode("s1"), g.AddNode("s2"), g.AddNode("s3")
	g.MustAddArc(u[0], s1)
	g.MustAddArc(u[0], s2)
	g.MustAddArc(u[0], s3)
	g.MustAddArc(u[1], s1)
	g.MustAddArc(u[2], s2)
	g.MustAddArc(u[3], s3)
	for i := 1; i <= 3; i++ {
		p1 := g.AddNode(fmt.Sprintf("p%d.1", i))
		p2 := g.AddNode(fmt.Sprintf("p%d.2", i))
		g.MustAddArc(u[i], p1)
		g.MustAddArc(u[i], p2)
	}
	if c, ok := Classify(g.MustFreeze()); ok {
		t.Fatalf("star-linked dag classified as %v", c.Family)
	}
}

func TestFamilyString(t *testing.T) {
	for f, want := range map[Family]string{
		WDag: "W", MDag: "M", NDag: "N", CycleDag: "Cycle", CliqueDag: "Clique", Unknown: "Unknown",
	} {
		if f.String() != want {
			t.Fatalf("Family(%d).String() = %q", f, f.String())
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"W(0,2)":      func() { NewW(0, 2) },
		"W(2,1)":      func() { NewW(2, 1) },
		"M(0,2)":      func() { NewM(0, 2) },
		"N(0)":        func() { NewN(0) },
		"Cycle(1)":    func() { NewCycle(1) },
		"Clique(0,1)": func() { NewClique(0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestConstructorShapes(t *testing.T) {
	for s := 1; s <= 5; s++ {
		for tt := 2; tt <= 4; tt++ {
			w := NewW(s, tt)
			if len(w.Sources()) != s || len(w.Sinks()) != s*(tt-1)+1 {
				t.Fatalf("W(%d,%d) shape: %d sources, %d sinks", s, tt, len(w.Sources()), len(w.Sinks()))
			}
			m := NewM(s, tt)
			if len(m.Sources()) != s*(tt-1)+1 || len(m.Sinks()) != s {
				t.Fatalf("M(%d,%d) shape wrong", s, tt)
			}
		}
	}
	for n := 2; n <= 6; n++ {
		if g := NewN(n); g.NumArcs() != 2*n-1 {
			t.Fatalf("N(%d) arcs = %d", n, g.NumArcs())
		}
		if g := NewCycle(n); g.NumArcs() != 2*n {
			t.Fatalf("Cycle(%d) arcs = %d", n, g.NumArcs())
		}
	}
}

// Round trip: Classify(NewX(...)) recovers the construction parameters
// across a parameter sweep.
func TestClassifyRoundTrip(t *testing.T) {
	for s := 2; s <= 6; s++ {
		for tt := 2; tt <= 5; tt++ {
			if c, ok := Classify(NewW(s, tt)); !ok || c.Family != WDag || c.S != s || c.T != tt {
				t.Fatalf("W(%d,%d) round trip failed: %+v %v", s, tt, c, ok)
			}
			if c, ok := Classify(NewM(s, tt)); !ok || c.Family != MDag || c.S != s || c.T != tt {
				t.Fatalf("M(%d,%d) round trip failed: %+v %v", s, tt, c, ok)
			}
		}
	}
	for n := 3; n <= 8; n++ {
		if c, ok := Classify(NewN(n)); !ok || c.Family != NDag || c.S != n {
			t.Fatalf("N(%d) round trip failed", n)
		}
		if c, ok := Classify(NewCycle(n)); !ok || c.Family != CycleDag || c.S != n {
			t.Fatalf("Cycle(%d) round trip failed", n)
		}
		if c, ok := Classify(NewClique(n, n)); !ok || c.Family != CliqueDag {
			t.Fatalf("Clique(%d) round trip failed", n)
		}
	}
}

func BenchmarkClassifyW(b *testing.B) {
	g := NewW(200, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := Classify(g); !ok {
			b.Fatal("classification failed")
		}
	}
}

// TestQuickClassifyImpliesOptimal guards against false-positive
// recognition: any random two-level dag the classifier accepts must get
// a source order that is IC-optimal by exhaustive search.
func TestQuickClassifyImpliesOptimal(t *testing.T) {
	r := rng.New(271)
	accepted := 0
	for trial := 0; trial < 3000; trial++ {
		nu, nv := 1+r.Intn(4), 1+r.Intn(5)
		g := dag.New()
		for i := 0; i < nu; i++ {
			g.AddNode(fmt.Sprintf("u%d", i))
		}
		for j := 0; j < nv; j++ {
			g.AddNode(fmt.Sprintf("v%d", j))
		}
		for i := 0; i < nu; i++ {
			for j := 0; j < nv; j++ {
				if r.Float64() < 0.5 {
					g.MustAddArc(i, nu+j)
				}
			}
		}
		fz := g.MustFreeze()
		c, ok := Classify(fz)
		if !ok {
			continue
		}
		accepted++
		assertICOptimal(t, fz, c)
	}
	if accepted < 100 {
		t.Fatalf("only %d random dags classified; generator too weak", accepted)
	}
}

// TestScratchReuseMatchesClassify: one Scratch reused across graphs of
// every family, of different sizes, and across random two-level and
// non-bipartite dags, in a shuffled order, must classify each exactly as
// a fresh Classify does. Stale links or flags left from an earlier
// graph would change a later result.
func TestScratchReuseMatchesClassify(t *testing.T) {
	r := rng.New(97)
	var gs []*dag.Frozen
	for n := 2; n <= 7; n++ {
		gs = append(gs, NewW(n, 2+n%3), NewM(n, 2+n%2), NewN(n), NewClique(n, 9-n))
		if n >= 3 {
			gs = append(gs, NewCycle(n))
		}
	}
	families := len(gs)
	for trial := 0; trial < 400; trial++ {
		nu, nv := 1+r.Intn(5), 1+r.Intn(6)
		b := dag.New()
		for i := 0; i < nu+nv; i++ {
			b.AddNode(fmt.Sprint("n", i))
		}
		for i := 0; i < nu; i++ {
			for j := 0; j < nv; j++ {
				if r.Float64() < 0.45 {
					b.MustAddArc(i, nu+j)
				}
			}
		}
		if trial%5 == 0 && nv > 1 { // a chain through two sinks: not bipartite
			b.MustAddArc(nu, nu+1)
		}
		gs = append(gs, b.MustFreeze())
	}
	for i := len(gs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		gs[i], gs[j] = gs[j], gs[i]
	}
	var sc Scratch
	var buf []int
	recognized := 0
	for i, g := range gs {
		want, wantOK := Classify(g)
		got, gotOK := sc.Classify(g, buf)
		if gotOK != wantOK || fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("graph %d: reused scratch gives %+v, %v; fresh Classify %+v, %v", i, got, gotOK, want, wantOK)
		}
		if gotOK {
			recognized++
			buf = got.SourceOrder
		}
	}
	if recognized < families {
		t.Fatalf("only %d of %d graphs recognized, fewer than the %d family instances", recognized, len(gs), families)
	}
}
