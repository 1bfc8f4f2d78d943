package core

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/dag"
	"repro/internal/decompose"
)

// TheoreticalSchedule implements the idealized six-step algorithm of
// Section 2.2 exactly, with its failure modes intact:
//
//   - Step 2 fails when the remnant cannot be decomposed into maximal
//     connected bipartite building blocks (ErrNotComposite).
//   - Step 3 fails when a building block is not isomorphic to a family
//     with a known IC-optimal schedule (ErrUnknownBlock).
//   - Steps 4-5 fail when some parent block does not have full priority
//     over a child block, or two blocks are incomparable
//     (ErrPriorityConflict).
//
// When it succeeds, the returned order is an IC-optimal schedule of g
// (Step 6: a topological sort of the superdag stably sorted by the
// priority relation, each block contributing its IC-optimal source
// order, with all dag sinks last). The heuristic of Section 3.1
// (Prioritize) is its "graceful" extension: it agrees with this
// algorithm whenever this algorithm works, and still produces a schedule
// when it fails.
func TheoreticalSchedule(g *dag.Frozen) ([]int, error) {
	return TheoreticalScheduleOpts(g, decompose.Options{})
}

// TheoreticalScheduleOpts is TheoreticalSchedule with explicit Divide
// options, so callers that also run the heuristic (prio -theoretical)
// can share a decompose.Options.ReduceCache and pay for the transitive
// reduction once.
func TheoreticalScheduleOpts(g *dag.Frozen, dopts decompose.Options) ([]int, error) {
	dec := decompose.DecomposeOpts(g, dopts)

	// Step 2: every component must be a bipartite building block whose
	// sources were sources of the remnant.
	for _, c := range dec.Components {
		if !c.FastPath {
			return nil, fmt.Errorf("%w: component %d is not a bipartite building block", ErrNotComposite, c.Index)
		}
	}

	// Step 3: every block must carry a known IC-optimal schedule.
	n := len(dec.Components)
	orders := make([][]int, n)
	profiles := make([][]int, n)
	pt := newProfileTable()
	pids := make([]int, n)
	for i, c := range dec.Components {
		sub := dec.Sub(i)
		if sub.NumNodes() == 1 {
			// An isolated job: trivially scheduled (it is a dag sink).
			orders[i] = nil
		} else {
			cls, ok := bipartite.Classify(sub)
			if !ok {
				return nil, fmt.Errorf("%w: component %d has no known IC-optimal schedule", ErrUnknownBlock, c.Index)
			}
			orders[i] = cls.SourceOrder
		}
		p, err := EligibilityTrace(sub, orders[i])
		if err != nil {
			return nil, fmt.Errorf("core: component %d: %v", i, err)
		}
		profiles[i] = p
		pids[i] = pt.intern(p)
	}

	// Step 4: all pairs must be comparable under the full priority
	// relation (r = 1 one way or the other). Comparing interned profile
	// pairs keeps this quadratic step cheap.
	distinct := len(pt.profiles)
	for a := 0; a < distinct; a++ {
		for b := 0; b < distinct; b++ {
			if pt.r(a, b) < 1 && pt.r(b, a) < 1 {
				return nil, fmt.Errorf("%w: incomparable building blocks", ErrPriorityConflict)
			}
		}
	}

	// Step 5: the superdag must respect the priorities: every parent
	// block must have full priority over each of its children.
	for i := 0; i < n; i++ {
		for _, j := range dec.Super.Children(i) {
			if pt.r(pids[i], pids[j]) < 1 {
				return nil, fmt.Errorf("%w: block %d precedes block %d without priority over it", ErrPriorityConflict, i, j)
			}
		}
	}

	// Step 6: order the blocks by a stable topological sort of the
	// union of the superdag arcs and the *strict* priority relation
	// (Bi over Bj but not Bj over Bi). The paper phrases this as a
	// stable sort of a topological order; a direct stable sort is
	// unsound, because blocks with degenerate profiles (e.g. isolated
	// jobs) tie with everything, so the tie relation is not transitive
	// and the comparator is not a strict weak order. A stable
	// topological sort of the strict relation — which is a partial
	// order by the transitivity of the priority relation — honours
	// exactly the same constraints.
	topo := dec.Super.Topo()
	strictBefore := func(a, b int) bool { return pt.r(a, b) == 1 && pt.r(b, a) < 1 }
	remaining := make(map[int]int, distinct) // unemitted components per profile
	for _, pid := range pids {
		remaining[pid]++
	}
	superDone := make([]int, n) // processed superdag parents
	emitted := make([]bool, n)
	var sorted []int
	for len(sorted) < n {
		picked := -1
		for _, ci := range topo {
			if emitted[ci] || superDone[ci] != dec.Super.InDegree(int(ci)) {
				continue
			}
			ready := true
			for qid, cnt := range remaining {
				if cnt > 0 && qid != pids[ci] && strictBefore(qid, pids[ci]) {
					ready = false
					break
				}
			}
			if ready {
				picked = int(ci)
				break
			}
		}
		if picked == -1 {
			return nil, fmt.Errorf("%w: strict priorities conflict with the superdag", ErrPriorityConflict)
		}
		emitted[picked] = true
		remaining[pids[picked]]--
		for _, c := range dec.Super.Children(picked) {
			superDone[c]++
		}
		sorted = append(sorted, picked)
	}
	order := make([]int, 0, g.NumNodes())
	for _, ci := range sorted {
		nodes := dec.Nodes(ci)
		for _, si := range orders[ci] {
			order = append(order, nodes[si])
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		if g.IsSink(v) {
			order = append(order, v)
		}
	}
	if err := ValidateExecutionOrder(g, order); err != nil {
		// The stable sort can in principle contradict the topological
		// constraints only if Step 5's check was insufficient for this
		// dag; surface that as a priority conflict rather than panic.
		return nil, fmt.Errorf("%w: sorted schedule violates dependencies: %v", ErrPriorityConflict, err)
	}
	return order, nil
}

// Sentinel failure modes of the theoretical algorithm.
var (
	// ErrNotComposite marks dags that do not decompose into bipartite
	// building blocks (Step 2).
	ErrNotComposite = fmt.Errorf("core: dag is not composite")
	// ErrUnknownBlock marks building blocks outside the families with
	// known IC-optimal schedules (Step 3).
	ErrUnknownBlock = fmt.Errorf("core: unknown building block")
	// ErrPriorityConflict marks priority incomparability or a superdag
	// that contradicts the priorities (Steps 4-5).
	ErrPriorityConflict = fmt.Errorf("core: priority conflict")
)
