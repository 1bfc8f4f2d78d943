package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
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

// equalSchedules fails the test unless a and b are identical in every
// externally visible field — the "byte-identical" differential contract
// between the uncached pipeline and the memoized one.
func equalSchedules(t *testing.T, label string, a, b *Schedule) {
	t.Helper()
	if len(a.Order) != len(b.Order) {
		t.Fatalf("%s: order lengths %d vs %d", label, len(a.Order), len(b.Order))
	}
	for i := range a.Order {
		if a.Order[i] != b.Order[i] {
			t.Fatalf("%s: Order diverges at step %d: %d vs %d", label, i, a.Order[i], b.Order[i])
		}
	}
	for v := range a.Rank {
		if a.Rank[v] != b.Rank[v] || a.Priority[v] != b.Priority[v] {
			t.Fatalf("%s: Rank/Priority diverge at job %d", label, v)
		}
	}
	if len(a.ComponentOrder) != len(b.ComponentOrder) {
		t.Fatalf("%s: component order lengths differ", label)
	}
	for i := range a.ComponentOrder {
		if a.ComponentOrder[i] != b.ComponentOrder[i] {
			t.Fatalf("%s: ComponentOrder diverges at %d", label, i)
		}
	}
	for i := range a.Components {
		ca, cb := a.Components[i], b.Components[i]
		if ca.Family != cb.Family || ca.ProfileID != cb.ProfileID {
			t.Fatalf("%s: component %d family/profile diverge", label, i)
		}
		if len(ca.Order) != len(cb.Order) || len(ca.Profile) != len(cb.Profile) {
			t.Fatalf("%s: component %d schedule shapes diverge", label, i)
		}
		for j := range ca.Order {
			if ca.Order[j] != cb.Order[j] {
				t.Fatalf("%s: component %d order diverges at %d", label, i, j)
			}
		}
		for j := range ca.Profile {
			if ca.Profile[j] != cb.Profile[j] {
				t.Fatalf("%s: component %d profile diverges at %d", label, i, j)
			}
		}
	}
}

// TestCacheMatchesUncachedWorkloads: the differential test of the
// memoized pipeline on every paper workload, with a fresh Cache and
// with one Cache shared across all of them. The dags are scaled down
// to keep the suite fast; the structure (multi-component superdags,
// bipartite fast-path blocks, non-bipartite remnants) is preserved.
func TestCacheMatchesUncachedWorkloads(t *testing.T) {
	scales := map[string]int{"airsn": 1, "inspiral": 8, "montage": 9, "sdss": 40}
	shared := NewCache()
	for _, name := range workloads.Names() {
		g, err := workloads.ByName(name, scales[name])
		if err != nil {
			t.Fatal(err)
		}
		ref := Prioritize(g)
		equalSchedules(t, name+"/cache", ref, PrioritizeOpts(g, Options{Cache: NewCache()}))
		equalSchedules(t, name+"/shared", ref, PrioritizeOpts(g, Options{Cache: shared}))
	}
}

// TestCacheMatchesUncachedRandom: property test over random dags of
// varying density, including dags with shortcuts, many isolated jobs,
// and single-component blobs.
func TestCacheMatchesUncachedRandom(t *testing.T) {
	r := rng.New(7)
	densities := []float64{0.005, 0.02, 0.08, 0.3}
	for trial := 0; trial < 40; trial++ {
		n := 20 + int(r.Uint64()%120)
		p := densities[trial%len(densities)]
		g := randomDag(r, n, p)
		got := PrioritizeOpts(g, Options{Cache: NewCache()})
		equalSchedules(t, fmt.Sprintf("random[%d,n=%d,p=%g]", trial, n, p), Prioritize(g), got)
	}
}

// TestCacheSharedAcrossCalls: one Cache shared by repeated runs stays
// coherent and keeps the output identical, and the repeat hits.
func TestCacheSharedAcrossCalls(t *testing.T) {
	cache := NewCache()
	g, err := workloads.ByName("sdss", 60)
	if err != nil {
		t.Fatal(err)
	}
	ref := Prioritize(g)
	first := PrioritizeOpts(g, Options{Cache: cache})
	equalSchedules(t, "sdss/first", ref, first)
	miss0 := cache.Stats().Misses
	if miss0 == 0 {
		t.Fatal("first run recorded no misses")
	}
	// SDSS is thousands of identical W chains: the cache must collapse
	// them to a handful of shapes even within a single run.
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatalf("no intra-run hits on SDSS: %+v", st)
	}
	second := PrioritizeOpts(g, Options{Cache: cache})
	equalSchedules(t, "sdss/second", ref, second)
	if st := cache.Stats(); st.Misses != miss0 {
		t.Fatalf("second identical run missed the cache: %+v", st)
	}
}

// TestCacheConcurrentPrioritize: several goroutines sharing one Cache,
// the way priod's tenants use it, must each produce the reference
// schedule. Under -race (make check-race) this is the package's data
// race check.
func TestCacheConcurrentPrioritize(t *testing.T) {
	cache := NewCache()
	g, err := workloads.ByName("inspiral", 16)
	if err != nil {
		t.Fatal(err)
	}
	ref := Prioritize(g)
	done := make(chan *Schedule, 8)
	for i := 0; i < 8; i++ {
		go func() { done <- PrioritizeOpts(g, Options{Cache: cache}) }()
	}
	for i := 0; i < 8; i++ {
		equalSchedules(t, fmt.Sprintf("concurrent[%d]", i), ref, <-done)
	}
}

// TestCacheStatsWhileStoring: priod's /metrics reads a tenant cache's
// Stats while requests store into it. The two goroutines share nothing
// but the cache, so under -race (make check-race) a Stats that reads
// the entry map without the cache's lock fails on every run, whatever
// the interleaving.
func TestCacheStatsWhileStoring(t *testing.T) {
	c := NewCache()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.store([]byte("sig"), 0, []int{0}, []int{1}) }()
	go func() { defer wg.Done(); c.Stats() }()
	wg.Wait()
	if st := c.Stats(); st.Entries != 1 {
		t.Fatalf("Entries = %d after one store, want 1", st.Entries)
	}
}
