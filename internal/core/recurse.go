package core

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/dag"
	"repro/internal/decompose"
)

// scheduleComponents runs the Recurse phase (Step 3 + the Step 4
// eligibility traces) for every component, in component-index order.
//
// A component's Order covers exactly its non-sinks and its Profile one
// entry more, so every Order and Profile is a window cut from one of
// two slabs sized up front, at offsets fixed by component index; with
// one scratch for everything else — each component's graph included,
// frozen into one reused dag.View — a component costs no allocations
// of its own.
func scheduleComponents(dec *decompose.Result, cache *Cache) []ComponentSchedule {
	comps := dec.Components
	out := make([]ComponentSchedule, len(comps))
	total := 0
	for i := range comps {
		total += comps[i].NonSinkCount
	}
	orders, profiles := make([]int, total), make([]int, total+len(comps))
	for i := range comps {
		ns := comps[i].NonSinkCount
		out[i] = ComponentSchedule{Comp: &comps[i], Order: orders[:ns:ns], Profile: profiles[: ns+1 : ns+1]}
		orders, profiles = orders[ns:], profiles[ns+1:]
	}
	var sc recurseScratch
	maxN, maxM := 0, 0
	for i := range comps {
		childStart, _ := dec.Window(i)
		maxN, maxM = max(maxN, len(childStart)-1), max(maxM, int(childStart[len(childStart)-1]))
	}
	sc.view.Grow(maxN, maxM)
	for i := range out {
		childStart, children := dec.Window(i)
		sub, err := sc.view.Freeze(nil, childStart, children)
		if err != nil {
			panic(err) // unreachable: an induced subgraph of a dag is a dag
		}
		recurseComponent(&out[i], sub, cache, &sc)
	}
	return out
}

// recurseScratch is the Recurse phase's reusable storage, the graph of
// the component being scheduled included.
type recurseScratch struct {
	view     dag.View
	classify bipartite.Scratch
	counts   []int
	executed []bool
	ready    []int64
	key      []byte
}

// ints returns n ints of unspecified value.
func (sc *recurseScratch) ints(n int) []int {
	if cap(sc.counts) < n {
		sc.counts = make([]int, n)
	}
	return sc.counts[:n]
}

// bools returns n bools of unspecified value.
func (sc *recurseScratch) bools(n int) []bool {
	if cap(sc.executed) < n {
		sc.executed = make([]bool, n)
	}
	return sc.executed[:n]
}

// recurseComponent fills in the schedule and eligibility profile of
// one component, whose subgraph is sub, writing them into the windows
// cs arrives with, or taking them from the memo cache when one is
// supplied. On a hit the Order and
// Profile slices are shared with the cache entry (and with every other
// component of the same shape); they are never mutated downstream.
func recurseComponent(cs *ComponentSchedule, sub *dag.Frozen, cache *Cache, sc *recurseScratch) {
	c := cs.Comp
	if cache != nil {
		sc.key = appendSignature(sc.key[:0], sub)
		if e, ok := cache.lookup(sc.key); ok {
			cs.Family, cs.Order, cs.Profile = e.family, e.order, e.profile
			return
		}
	}
	cs.Family, cs.Order = scheduleComponent(sub, sc, cs.Order)
	if len(cs.Order) != c.NonSinkCount {
		panic(fmt.Sprintf("core: component %d schedule has %d jobs for %d non-sinks", c.Index, len(cs.Order), c.NonSinkCount))
	}
	n := sub.NumNodes()
	profile, err := eligibilityTrace(sub, cs.Order, sc.ints(n), sc.bools(n), cs.Profile)
	if err != nil {
		panic(fmt.Sprintf("core: component %d schedule invalid: %v", c.Index, err))
	}
	cs.Profile = profile
	if cache != nil {
		cache.store(sc.key, cs.Family, cs.Order, cs.Profile)
	}
}
