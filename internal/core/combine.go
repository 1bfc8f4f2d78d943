package core

import (
	"math"

	"repro/internal/bitset"
	"repro/internal/dag"
)

// profileGroup is the set of current superdag sources that share one
// interned eligibility profile.
type profileGroup struct {
	comps minHeap[int] // the group's current sources, by index
	pMin  float64      // minimum priority of the profile over the live ones
}

// combineOrder returns the order in which the superdag's components are
// consumed: repeatedly pick, among the current sources of the superdag,
// a component Ci maximizing pi = min over the other current sources Cj
// of (priority of Ci over Cj). Ties break toward the smallest component
// index. pids maps each component to its interned eligibility profile.
//
// This is the engineered implementation of Section 3.5, but not the
// structure the paper names: where the paper ranks sources in a B-tree
// priority queue, this groups them by interned eligibility profile,
// since sources with one profile have one pi. Each round scans the
// live groups for the highest pMin, ties going to the group holding
// the smallest component index; a slice heap yields that index within
// a group. pMin is kept up to date incrementally and recomputed for
// every group only when a profile leaves. The paper dags never have
// more than two groups live at once, so the scan is a handful of
// compares. The quadratic design it replaced is kept as combineNaive
// in combine_oracle_test.go, the oracle it is tested against.
func combineOrder(super *dag.Frozen, pids []int, pt *profileTable) []int {
	n := super.NumNodes()
	indeg := make([]int, n)
	// Profile ids are small dense integers, so the groups are a slice
	// indexed by pid plus a bitset of the live (nonempty) ones: the
	// scans walk set bits in pid order, with no hashing.
	groups := make([]profileGroup, pt.numProfiles())
	live := bitset.New(pt.numProfiles())

	computePMin := func(pid int) float64 {
		p := math.Inf(1)
		lone := len(groups[pid].comps) < 2
		live.ForEach(func(qid int) bool {
			if qid == pid && lone {
				return true
			}
			if r := pt.r(pid, qid); r < p {
				p = r
			}
			return true
		})
		return p
	}
	rebuildAll := func() {
		live.ForEach(func(pid int) bool {
			groups[pid].pMin = computePMin(pid)
			return true
		})
	}

	for v := 0; v < n; v++ {
		indeg[v] = super.InDegree(v)
		if indeg[v] == 0 {
			groups[pids[v]].comps.push(v)
			live.Add(pids[v])
		}
	}
	rebuildAll()

	order := make([]int, 0, n)
	for {
		best := live.Next(0)
		if best < 0 {
			break
		}
		for pid := live.Next(best + 1); pid >= 0; pid = live.Next(pid + 1) {
			g, b := &groups[pid], &groups[best]
			if g.pMin > b.pMin || g.pMin == b.pMin && g.comps[0] < b.comps[0] {
				best = pid
			}
		}
		g := &groups[best]
		comp := g.comps.pop()
		order = append(order, comp)
		switch len(g.comps) {
		case 0:
			live.Remove(best)
			// The departed profile may have been the minimum for others.
			rebuildAll()
		case 1:
			// r(g,g) no longer applies to a lone member.
			g.pMin = computePMin(best)
		}
		for _, c32 := range super.Children(comp) {
			c := int(c32)
			indeg[c]--
			if indeg[c] != 0 {
				continue
			}
			pid := pids[c]
			g2 := &groups[pid]
			g2.comps.push(c)
			switch {
			case len(g2.comps) == 2:
				// A second member brings r(g,g) into the minimum.
				if r := pt.r(pid, pid); r < g2.pMin {
					g2.pMin = r
				}
			case len(g2.comps) == 1:
				live.Add(pid)
				g2.pMin = computePMin(pid)
				// A new profile can lower every other group's minimum.
				live.ForEach(func(hpid int) bool {
					if hpid == pid {
						return true
					}
					h := &groups[hpid]
					if r := pt.r(hpid, pid); r < h.pMin {
						h.pMin = r
					}
					return true
				})
			}
		}
	}
	return order
}
