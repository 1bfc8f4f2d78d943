package core

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/btree"
	"repro/internal/dag"
)

// groupKey orders profile groups in the B-tree: ascending by minimum
// pairwise priority, and among equal priorities the maximum element is
// the group holding the smallest component index, so Max() reproduces
// the naive tie-breaking exactly.
type groupKey struct {
	p       float64
	minComp int
	pid     int
}

func groupKeyLess(a, b groupKey) bool {
	if a.p != b.p {
		return a.p < b.p
	}
	if a.minComp != b.minComp {
		return a.minComp > b.minComp
	}
	return a.pid > b.pid
}

type profileGroup struct {
	pid   int
	count int
	comps *btree.Tree[int]
	pMin  float64
	key   groupKey
}

// combineOrder returns the order in which the superdag's components are
// consumed: repeatedly pick, among the current sources of the superdag,
// a component Ci maximizing pi = min over the other current sources Cj
// of (priority of Ci over Cj). Ties break toward the smallest component
// index. pids maps each component to its interned eligibility profile.
//
// This is the engineered implementation of Section 3.5: sources are
// grouped by interned eligibility profile and ranked in a B-tree
// priority queue keyed by minimum pairwise priority, so each round
// costs O(log) except when the set of distinct profiles changes. The
// quadratic design it replaced is kept as combineNaive in
// combine_oracle_test.go, the oracle it is tested against.
func combineOrder(super *dag.Frozen, pids []int, pt *profileTable) []int {
	n := super.NumNodes()
	indeg := make([]int, n)
	// Profile ids are small dense integers, so the live groups are a
	// slice indexed by pid plus a bitset of occupied slots: the pMin
	// scans walk set bits instead of a map, which both removes the
	// hashing from the hot loop and makes the scan order deterministic.
	groups := make([]*profileGroup, pt.numProfiles())
	live := bitset.New(pt.numProfiles())
	tree := btree.New(8, groupKeyLess)

	addComp := func(c int) *profileGroup {
		pid := pids[c]
		g := groups[pid]
		if g == nil {
			g = &profileGroup{
				pid:   pid,
				comps: btree.New(8, func(a, b int) bool { return a < b }),
			}
			groups[pid] = g
			live.Add(pid)
		}
		g.comps.Insert(c)
		g.count++
		return g
	}
	computePMin := func(g *profileGroup) float64 {
		p := math.Inf(1)
		live.ForEach(func(qid int) bool {
			if qid == g.pid && g.count < 2 {
				return true
			}
			if r := pt.r(g.pid, qid); r < p {
				p = r
			}
			return true
		})
		return p
	}
	refreshKey := func(g *profileGroup, inTree bool) {
		if inTree {
			tree.Delete(g.key)
		}
		mc, _ := g.comps.Min()
		g.key = groupKey{p: g.pMin, minComp: mc, pid: g.pid}
		tree.Insert(g.key)
	}
	rebuildAll := func() {
		live.ForEach(func(pid int) bool {
			tree.Delete(groups[pid].key)
			return true
		})
		live.ForEach(func(pid int) bool {
			g := groups[pid]
			g.pMin = computePMin(g)
			mc, _ := g.comps.Min()
			g.key = groupKey{p: g.pMin, minComp: mc, pid: g.pid}
			tree.Insert(g.key)
			return true
		})
	}

	for v := 0; v < n; v++ {
		indeg[v] = super.InDegree(v)
		if indeg[v] == 0 {
			addComp(v)
		}
	}
	rebuildAll()

	order := make([]int, 0, n)
	for tree.Len() > 0 {
		key, _ := tree.Max()
		g := groups[key.pid]
		comp, _ := g.comps.DeleteMin()
		order = append(order, comp)
		g.count--
		if g.count == 0 {
			tree.Delete(g.key)
			groups[g.pid] = nil
			live.Remove(g.pid)
			// The departed profile may have been the minimum for others.
			rebuildAll()
		} else {
			if g.count == 1 {
				// r(g,g) no longer applies to a lone member.
				g.pMin = computePMin(g)
			}
			refreshKey(g, true)
		}
		for _, c32 := range super.Children(comp) {
			c := int(c32)
			indeg[c]--
			if indeg[c] != 0 {
				continue
			}
			pid := pids[c]
			if g2 := groups[pid]; g2 != nil {
				wasAlone := g2.count == 1
				g2.comps.Insert(c)
				g2.count++
				if wasAlone {
					if r := pt.r(pid, pid); r < g2.pMin {
						g2.pMin = r
					}
				}
				refreshKey(g2, true)
			} else {
				g2 := addComp(c)
				g2.pMin = computePMin(g2)
				refreshKey(g2, false)
				// A new profile can lower every other group's minimum.
				live.ForEach(func(hpid int) bool {
					if hpid == pid {
						return true
					}
					h := groups[hpid]
					if r := pt.r(hpid, pid); r < h.pMin {
						h.pMin = r
						refreshKey(h, true)
					}
					return true
				})
			}
		}
	}
	return order
}
