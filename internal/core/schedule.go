package core

import (
	"cmp"

	"repro/internal/bipartite"
	"repro/internal/dag"
	"repro/internal/decompose"
)

// Options tunes the prioritization pipeline; the zero value runs it
// without memoization. No field changes a schedule bit.
type Options struct {
	// Parallel is ignored: the pipeline always runs sequentially.
	//
	// Deprecated: ignored. perfbench, which changes only together with
	// the benchmark it defines, still sets it; the field is deleted
	// with the next benchmark change.
	Parallel int
	// Cache, when non-nil, memoizes component schedules by exact
	// structural signature and transitive reductions by graph
	// fingerprint, across components and across calls. The same Cache
	// may be shared by concurrent PrioritizeOpts calls.
	Cache *Cache
}

// ComponentSchedule is the Recurse-phase result for one component.
// Order and Profile are windows over storage shared by the whole
// Schedule, or over a Cache entry's.
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
	Components     []ComponentSchedule
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

	// Recurse: per-component schedules.
	comps := scheduleComponents(dec.Components, opts.Cache)

	// Profiles are interned in component order, so ids — and therefore
	// the Combine phase — depend only on the decomposition.
	pt := newProfileTable()
	pids := make([]int, len(comps))
	for i := range comps {
		comps[i].ProfileID = pt.intern(comps[i].Profile)
		pids[i] = comps[i].ProfileID
	}

	compOrder := combineOrder(dec.Super, pids, pt)

	n := g.NumNodes()
	order := make([]int, 0, n)
	for _, ci := range compOrder {
		cs := &comps[ci]
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
// component, writing its schedule into order[:0]: an explicit
// IC-optimal schedule when the component is a recognized bipartite
// building block, otherwise the outdegree heuristic — repeatedly
// execute the eligible non-sink with the largest out-degree (ties
// toward the smaller index), which executes sinks last exactly as the
// paper prescribes.
func scheduleComponent(c *decompose.Component, sc *recurseScratch, order []int) (bipartite.Family, []int) {
	if cls, ok := sc.classify.Classify(c.Sub, order); ok {
		return cls.Family, cls.SourceOrder
	}
	return bipartite.Unknown, outdegreeOrder(c.Sub, sc, order)
}

// degKey packs an eligible job's out-degree and index into one heap
// key: the smallest key is the job with the largest out-degree, ties
// toward the smaller index.
func degKey(deg, v int) int64 { return int64(-deg)<<32 | int64(v) }

// outdegreeOrder writes into order[:0] the component's non-sinks in
// greatest-outdegree-first order, constrained to be a valid execution
// order (a job is only emitted once all of its parents inside the
// component have been emitted).
func outdegreeOrder(sub *dag.Frozen, sc *recurseScratch, order []int) []int {
	n := sub.NumNodes()
	remaining := sc.ints(n)
	ready := minHeap[int64](sc.ready[:0])
	nonSinks := 0
	for v := 0; v < n; v++ {
		remaining[v] = sub.InDegree(v)
		if sub.OutDegree(v) == 0 {
			continue
		}
		nonSinks++
		if remaining[v] == 0 {
			ready.push(degKey(sub.OutDegree(v), v))
		}
	}
	order = order[:0]
	for len(ready) > 0 {
		v := int(ready.pop() & (1<<32 - 1))
		order = append(order, v)
		for _, c := range sub.Children(v) {
			remaining[c]--
			if remaining[c] == 0 && sub.OutDegree(int(c)) > 0 {
				ready.push(degKey(sub.OutDegree(int(c)), int(c)))
			}
		}
	}
	sc.ready = ready
	if len(order) != nonSinks {
		panic("core: outdegree order did not cover all non-sinks")
	}
	return order
}

// minHeap is a binary min-heap over a slice. Its keys are totally
// ordered, so its pop sequence is fully determined by the keys pushed.
type minHeap[T cmp.Ordered] []T

func (h *minHeap[T]) push(x T) {
	*h = append(*h, x)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p] <= s[i] {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// pop removes and returns the minimum; the heap must be nonempty.
func (h *minHeap[T]) pop() T {
	s := *h
	top, last := s[0], len(s)-1
	s[0] = s[last]
	s = s[:last]
	*h = s
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < last && s[l] < s[m] {
			m = l
		}
		if r < last && s[r] < s[m] {
			m = r
		}
		if m == i {
			return top
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
}
