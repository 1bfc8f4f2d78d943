package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/workloads"
)

// TestComponentSignatureExact: the signature must separate structures
// that differ only subtly (same degree multiset, different wiring) and
// must ignore names.
func TestComponentSignatureExact(t *testing.T) {
	// Two sources, two sinks: "parallel arcs" vs "shared sink + private".
	g1 := dag.New()
	a, b, c, d := g1.AddNode("a"), g1.AddNode("b"), g1.AddNode("c"), g1.AddNode("d")
	g1.MustAddArc(a, c)
	g1.MustAddArc(b, d)

	g2 := dag.New()
	a2, b2, c2, d2 := g2.AddNode("a"), g2.AddNode("b"), g2.AddNode("c"), g2.AddNode("d")
	g2.MustAddArc(a2, d2)
	g2.MustAddArc(b2, c2)

	if string(appendSignature(nil, g1.MustFreeze())) == string(appendSignature(nil, g2.MustFreeze())) {
		t.Fatal("different wirings share a signature")
	}

	g3 := dag.New()
	x, y, z, w := g3.AddNode("p"), g3.AddNode("q"), g3.AddNode("r"), g3.AddNode("s")
	g3.MustAddArc(x, z)
	g3.MustAddArc(y, w)
	if string(appendSignature(nil, g1.MustFreeze())) != string(appendSignature(nil, g3.MustFreeze())) {
		t.Fatal("renaming changed the signature")
	}

	// Index-ambiguity guard: node "12" then arcs to {3} must not equal
	// node "1" with arcs to {2, 3}.
	g4 := dag.New()
	for i := 0; i < 13; i++ {
		g4.AddNode(string(rune('a' + i)))
	}
	g4.MustAddArc(0, 12)
	g5 := dag.New()
	for i := 0; i < 13; i++ {
		g5.AddNode(string(rune('a' + i)))
	}
	g5.MustAddArc(0, 1)
	g5.MustAddArc(0, 2)
	if string(appendSignature(nil, g4.MustFreeze())) == string(appendSignature(nil, g5.MustFreeze())) {
		t.Fatal("signature is delimiter-ambiguous")
	}
}

// TestCacheStats: hit/miss accounting and hit rate.
func TestCacheStats(t *testing.T) {
	c := NewCache()
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 || st.HitRate() != 0 {
		t.Fatalf("fresh cache stats = %+v", st)
	}
	g, err := workloads.ByName("sdss", 120) // ~400 jobs of identical chains
	if err != nil {
		t.Fatal(err)
	}
	PrioritizeOpts(g, Options{Cache: c})
	st := c.Stats()
	if st.Misses == 0 || st.Hits == 0 {
		t.Fatalf("expected both hits and misses on SDSS, got %+v", st)
	}
	// Sequential run: every miss stores exactly one new shape.
	if st.Entries != int(st.Misses) {
		t.Fatalf("entries inconsistent with misses: %+v", st)
	}
	if hr := st.HitRate(); hr <= 0 || hr >= 1 {
		t.Fatalf("hit rate = %v, want in (0,1)", hr)
	}
}

// TestCacheSharesReduction: PrioritizeOpts with a Cache threads the
// embedded ReduceCache into the Divide phase, so a second run reuses
// the reduced graph object.
func TestCacheSharesReduction(t *testing.T) {
	c := NewCache()
	gb := dag.New()
	a, b, d := gb.AddNode("a"), gb.AddNode("b"), gb.AddNode("c")
	gb.MustAddArc(a, b)
	gb.MustAddArc(b, d)
	gb.MustAddArc(a, d) // shortcut
	g := gb.MustFreeze()
	s1 := PrioritizeOpts(g, Options{Cache: c})
	s2 := PrioritizeOpts(g, Options{Cache: c})
	if s1.Decomposition.Reduced != s2.Decomposition.Reduced {
		t.Fatal("second run did not reuse the cached transitive reduction")
	}
	if len(s1.Decomposition.Shortcuts) != 1 {
		t.Fatalf("shortcuts = %v, want one", s1.Decomposition.Shortcuts)
	}
}
