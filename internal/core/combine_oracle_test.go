package core

import (
	"fmt"
	"math"
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
		t.Fatalf("%s: B-tree and naive Combine disagree:\nbtree: %v\nnaive: %v", what, s.ComponentOrder, want)
	}
}

func TestNaiveAndBTreeCombineAgree(t *testing.T) {
	r := rng.New(23)
	for trial := 0; trial < 30; trial++ {
		g := randomDag(r, 2+r.Intn(40), 0.12)
		checkCombineOracle(t, fmt.Sprintf("trial %d", trial), Prioritize(g))
	}
}

// TestCombineAgreementAtScale: the engineered B-tree Combine and the
// naive one must consume the superdag in the same order on dags with
// hundreds of components (the stress cases the random-dag agreement
// test cannot reach).
func TestCombineAgreementAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("scale test")
	}
	checkCombineOracle(t, "Inspiral(60)", Prioritize(workloads.Inspiral(60))) // ~790 jobs, ~370 components
	checkCombineOracle(t, "SDSS(400,5)", Prioritize(workloads.SDSS(400, 5)))
}

// BenchmarkAblationCombine is the Section 3.5 Combine exhibit: the
// B-tree priority queue versus the naive quadratic re-evaluation, timing
// the Combine phase alone (profile interning plus superdag consumption,
// with a fresh profile table per iteration so no r-priority is cached
// across iterations) on the paper Inspiral's superdag, whose ~1,400
// components make the cost visible. It fails if the two disagree.
func BenchmarkAblationCombine(b *testing.B) {
	s := Prioritize(workloads.PaperInspiral())
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
		b.Fatal("B-tree and naive Combine disagree on paper Inspiral")
	}
}
