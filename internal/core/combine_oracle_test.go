package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// combineNaive is the Combine phase as the paper's first implementation
// ran it: every round recomputes each current source's minimum
// pairwise priority from scratch (quadratic per round). It is the
// oracle for combineOrder and the "naive" side of
// BenchmarkAblationCombine.
func combineNaive(super *dag.Frozen, pids []int, pt *profileTable) []int {
	n := super.NumNodes()
	indeg := make([]int, n)
	var sources []int
	for v := 0; v < n; v++ {
		indeg[v] = super.InDegree(v)
		if indeg[v] == 0 {
			sources = append(sources, v)
		}
	}
	order := make([]int, 0, n)
	for len(sources) > 0 {
		best, bestP := -1, math.Inf(-1)
		for _, i := range sources {
			pi := math.Inf(1)
			for _, j := range sources {
				if j == i {
					continue
				}
				if r := pt.r(pids[i], pids[j]); r < pi {
					pi = r
				}
			}
			if pi > bestP { // strict: first maximum wins = smallest index
				best, bestP = i, pi
			}
		}
		order = append(order, best)
		// remove best, keeping sources sorted
		k := sort.SearchInts(sources, best)
		sources = append(sources[:k], sources[k+1:]...)
		for _, c := range super.Children(best) {
			indeg[c]--
			if indeg[c] == 0 {
				k := sort.SearchInts(sources, int(c))
				sources = append(sources, 0)
				copy(sources[k+1:], sources[k:len(sources)-1])
				sources[k] = int(c)
			}
		}
	}
	return order
}

// internProfiles re-interns s's component profiles in component order
// into a fresh table, as PrioritizeOpts interns them.
func internProfiles(s *Schedule) ([]int, *profileTable) {
	pt := newProfileTable()
	pids := make([]int, len(s.Components))
	for i, cs := range s.Components {
		pids[i] = pt.intern(cs.Profile)
	}
	return pids, pt
}

// naiveComponentOrder reruns the Combine phase of s with combineNaive
// over the same superdag.
func naiveComponentOrder(s *Schedule) []int {
	pids, pt := internProfiles(s)
	return combineNaive(s.Decomposition.Super, pids, pt)
}

func checkCombineOracle(t *testing.T, what string, s *Schedule) {
	t.Helper()
	want := naiveComponentOrder(s)
	if fmt.Sprint(s.ComponentOrder) != fmt.Sprint(want) {
		t.Fatalf("%s: grouped and naive Combine disagree:\ngrouped: %v\nnaive:   %v", what, s.ComponentOrder, want)
	}
}

// TestNaiveAndBTreeCombineAgree holds the profile-grouped Combine (the
// "btree" side of BenchmarkAblationCombine, named for the B-tree queue
// it replaced) to combineNaive on small random dags.
func TestNaiveAndBTreeCombineAgree(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 30; trial++ {
		g := randomDag(r, 2+r.Intn(40), 0.12)
		checkCombineOracle(t, fmt.Sprintf("trial %d", trial), Prioritize(g))
	}
}

// TestCombineAgreementRandomProfiles drives combineOrder and
// combineNaive directly, on random superdags whose components draw
// their profiles from a small random pool. The pipeline's own profiles
// rarely make a profile's priority over itself the minimum, so the
// dag-level tests pass even with the pMin upkeep for a group's second
// member, or for a group shrinking to one, deleted; this test fails
// on either.
func TestCombineAgreementRandomProfiles(t *testing.T) {
	r := rng.New(29)
	for trial := 0; trial < 300; trial++ {
		super := randomDag(r, 2+r.Intn(30), 0.1)
		pool := make([][]int, 1+r.Intn(5))
		for i := range pool {
			pool[i] = make([]int, 1+r.Intn(4))
			for x := range pool[i] {
				pool[i][x] = r.Intn(4)
			}
		}
		pt := newProfileTable()
		pids := make([]int, super.NumNodes())
		for v := range pids {
			pids[v] = pt.intern(pool[r.Intn(len(pool))])
		}
		got, want := combineOrder(super, pids, pt), combineNaive(super, pids, pt)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d, profiles %v: grouped and naive Combine disagree:\ngrouped: %v\nnaive:   %v", trial, pool, got, want)
		}
	}
}

// forkJoinForest returns k disjoint blocks, block i a fork job with i
// children; a seeded half of the blocks also join their children into
// one job. Every component has its own eligibility profile: k = 100
// gives 143 of each, and the 100 fork components start as sources. It
// is the many-profile case the paper dags never reach; they have at
// most two profile groups live at a time.
func forkJoinForest(k int, seed uint64) *dag.Frozen {
	r := rng.New(seed)
	g := dag.New()
	for i := 1; i <= k; i++ {
		fork := g.AddNode(fmt.Sprintf("f%d", i))
		first := fork + 1
		for c := 0; c < i; c++ {
			g.MustAddArc(fork, g.AddNode(fmt.Sprintf("c%d_%d", i, c)))
		}
		if r.Intn(2) == 0 {
			join := g.AddNode(fmt.Sprintf("j%d", i))
			for c := first; c < join; c++ {
				g.MustAddArc(c, join)
			}
		}
	}
	return g.MustFreeze()
}

// TestCombineAgreementAtScale: the engineered Combine and the naive one
// must consume the superdag in the same order on dags with hundreds of
// components or profiles (the stress cases the random-dag agreement
// test cannot reach).
func TestCombineAgreementAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	checkCombineOracle(t, "Inspiral(60)", Prioritize(workloads.Inspiral(60))) // ~790 jobs, ~370 components
	checkCombineOracle(t, "SDSS(400,5)", Prioritize(workloads.SDSS(400, 5)))
	checkCombineOracle(t, "forkJoinForest(100)", Prioritize(forkJoinForest(100, 1))) // 143 profiles
}

// BenchmarkAblationCombine is the Section 3.5 Combine exhibit: the
// profile-grouped Combine ("btree", the name it kept from the B-tree
// queue it replaced) versus the naive quadratic re-evaluation, timing
// the Combine phase alone (profile interning plus superdag consumption,
// with a fresh profile table per iteration so no r-priority is cached
// across iterations). The top-level pair runs on the paper Inspiral's
// superdag, whose ~1,400 components make the cost visible; the
// forkjoin pair on forkJoinForest(100), whose 143 profiles give the
// grouped design many live groups to scan. Each fails if the two
// disagree.
func BenchmarkAblationCombine(b *testing.B) {
	benchCombine(b, "paper Inspiral", Prioritize(workloads.PaperInspiral()))
	b.Run("forkjoin", func(b *testing.B) {
		benchCombine(b, "forkJoinForest(100)", Prioritize(forkJoinForest(100, 1)))
	})
}

func benchCombine(b *testing.B, what string, s *Schedule) {
	super := s.Decomposition.Super
	orders := make(map[string][]int)
	for _, tc := range []struct {
		name    string
		combine func(*dag.Frozen, []int, *profileTable) []int
	}{{"btree", combineOrder}, {"naive", combineNaive}} {
		b.Run(tc.name, func(b *testing.B) {
			var order []int
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pids, pt := internProfiles(s)
				order = tc.combine(super, pids, pt)
			}
			orders[tc.name] = order
		})
	}
	if bt, nv := orders["btree"], orders["naive"]; bt != nil && nv != nil && fmt.Sprint(bt) != fmt.Sprint(nv) {
		b.Fatalf("grouped and naive Combine disagree on %s", what)
	}
}
