package core

import (
	"repro/internal/bipartite"
	"repro/internal/btree"
	"repro/internal/dag"
	"repro/internal/decompose"
)

// Options tunes the prioritization pipeline; the zero value runs the
// Recurse phase sequentially without memoization. Neither field
// changes a schedule bit.
type Options struct {
	// Parallel sets the Recurse-phase worker count: 0 or 1 runs the
	// sequential reference path (so the zero Options value stays the
	// reference configuration), values above 1 fan the per-component
	// work out over that many goroutines, and negative values use one
	// worker per logical CPU. The parallel output is bit-identical to
	// the sequential output (the differential tests enforce this).
	Parallel int
	// Cache, when non-nil, memoizes component schedules by exact
	// structural signature and transitive reductions by graph
	// fingerprint, across components and across calls. The same Cache
	// may be shared by concurrent PrioritizeOpts calls.
	Cache *Cache
}

// workers returns the Recurse worker count encoded by Parallel.
func (o Options) workers() int {
	if o.Parallel == 0 {
		return 1
	}
	return recurseWorkers(o.Parallel)
}

// ComponentSchedule is the Recurse-phase result for one component.
type ComponentSchedule struct {
	Comp *decompose.Component
	// Family is the recognized building-block family, or
	// bipartite.Unknown when the outdegree heuristic was used.
	Family bipartite.Family
	// Order lists the component's non-sinks (as Sub indices) in
	// execution order: the family's IC-optimal source order when
	// recognized, otherwise greatest-outdegree-first among eligible
	// jobs.
	Order []int
	// Profile[x] is the number of eligible jobs of the component after
	// executing the first x jobs of Order (Step 4's E_Sigma values).
	Profile   []int
	ProfileID int
}

// Schedule is the output of the prio pipeline for a dag.
type Schedule struct {
	Graph *dag.Frozen
	// Order is the PRIO execution order over all jobs: per-component
	// non-sink schedules in greedy Combine order, then every dag sink
	// in node-index order (the paper's "all sinks in arbitrary order";
	// index order reproduces the Fig. 3 example).
	Order []int
	// Rank[v] is v's position in Order; Priority[v] = NumNodes - Rank[v]
	// is the Condor job priority (larger runs first), matching the
	// numbering of Fig. 3 (the first job of five gets priority 5).
	Rank     []int
	Priority []int
	// ComponentOrder is the sequence in which the Combine phase
	// consumed the superdag's components.
	ComponentOrder []int
	Components     []*ComponentSchedule
	Decomposition  *decompose.Result
}

// Prioritize runs the full heuristic of Section 3.1 on g with default
// options: Divide (shortcut removal + decomposition), Recurse (per-
// component IC-optimal or outdegree schedules), Combine (greedy
// max-min-priority consumption of the superdag).
//
//prio:pure
func Prioritize(g *dag.Frozen) *Schedule { return PrioritizeOpts(g, Options{}) }

// PrioritizeOpts runs the full heuristic with explicit options.
//
//prio:pure
func PrioritizeOpts(g *dag.Frozen, opts Options) *Schedule {
	dec := decompose.DecomposeOpts(g, decompose.Options{ReduceCache: opts.Cache.ReduceCache()})

	// Recurse: per-component schedules, fanned out when requested.
	comps := scheduleComponents(dec.Components, opts.workers(), opts.Cache)

	// Profile interning is sequential and in component order, so ids —
	// and therefore the Combine phase — never depend on worker timing.
	pt := newProfileTable()
	pids := make([]int, len(comps))
	for i, cs := range comps {
		cs.ProfileID = pt.intern(cs.Profile)
		pids[i] = cs.ProfileID
	}

	// In parallel mode, fill the pairwise r-priority matrix up front
	// across the workers; Combine then only reads cached cells. The
	// values are pure functions of the interned profiles, so this is
	// invisible in the output. The sequential reference keeps the lazy
	// evaluation, which computes only the pairs Combine actually asks
	// for.
	if w := opts.workers(); w > 1 {
		pt.precomputeAll(w)
	}

	compOrder := combineOrder(dec.Super, pids, pt)

	n := g.NumNodes()
	order := make([]int, 0, n)
	for _, ci := range compOrder {
		cs := comps[ci]
		for _, si := range cs.Order {
			order = append(order, cs.Comp.Orig[si])
		}
	}
	// Final phase: all sinks of the dag, in node-index order.
	for v := 0; v < n; v++ {
		if g.IsSink(v) {
			order = append(order, v)
		}
	}

	s := &Schedule{
		Graph:          g,
		Order:          order,
		Rank:           make([]int, n),
		Priority:       make([]int, n),
		ComponentOrder: compOrder,
		Components:     comps,
		Decomposition:  dec,
	}
	for rank, v := range order {
		s.Rank[v] = rank
		s.Priority[v] = n - rank
	}
	return s
}

// scheduleComponent implements the Recurse phase (Step 3) for one
// component: an explicit IC-optimal schedule when the component is a
// recognized bipartite building block, otherwise the outdegree
// heuristic — repeatedly execute the eligible non-sink with the largest
// out-degree (ties toward the smaller index), which executes sinks last
// exactly as the paper prescribes.
func scheduleComponent(c *decompose.Component) *ComponentSchedule {
	cs := &ComponentSchedule{Comp: c}
	if cls, ok := bipartite.Classify(c.Sub); ok {
		cs.Family = cls.Family
		cs.Order = cls.SourceOrder
		return cs
	}
	cs.Family = bipartite.Unknown
	cs.Order = outdegreeOrder(c.Sub)
	return cs
}

// degKey orders eligible jobs by descending out-degree, then ascending
// index.
type degKey struct{ deg, idx int }

func degKeyLess(a, b degKey) bool {
	if a.deg != b.deg {
		return a.deg > b.deg
	}
	return a.idx < b.idx
}

// outdegreeOrder returns the component's non-sinks in
// greatest-outdegree-first order, constrained to be a valid execution
// order (a job is only emitted once all of its parents inside the
// component have been emitted).
func outdegreeOrder(sub *dag.Frozen) []int {
	n := sub.NumNodes()
	remaining := make([]int, n)
	ready := btree.New(8, degKeyLess)
	nonSinks := 0
	for v := 0; v < n; v++ {
		remaining[v] = sub.InDegree(v)
		if sub.OutDegree(v) == 0 {
			continue
		}
		nonSinks++
		if remaining[v] == 0 {
			ready.Insert(degKey{deg: sub.OutDegree(v), idx: v})
		}
	}
	order := make([]int, 0, nonSinks)
	for ready.Len() > 0 {
		k, _ := ready.DeleteMin()
		v := k.idx
		order = append(order, v)
		for _, c := range sub.Children(v) {
			remaining[c]--
			if remaining[c] == 0 && sub.OutDegree(int(c)) > 0 {
				ready.Insert(degKey{deg: sub.OutDegree(int(c)), idx: int(c)})
			}
		}
	}
	if len(order) != nonSinks {
		panic("core: outdegree order did not cover all non-sinks")
	}
	return order
}
