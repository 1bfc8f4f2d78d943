package core

import (
	"fmt"

	"repro/internal/bipartite"
	"repro/internal/decompose"
)

// scheduleComponents runs the Recurse phase (Step 3 + the Step 4
// eligibility traces) for every component, in component-index order.
//
// A component's Order covers exactly its non-sinks and its Profile one
// entry more, so every Order and Profile is a window cut from one of
// two slabs sized up front, at offsets fixed by component index; with
// one scratch for everything else, a component costs no allocations of
// its own.
func scheduleComponents(comps []decompose.Component, cache *Cache) []ComponentSchedule {
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
	for i := range out {
		recurseComponent(&out[i], cache, &sc)
	}
	return out
}

// recurseScratch is the Recurse phase's reusable storage.
type recurseScratch struct {
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

// recurseComponent fills in one component's schedule and eligibility
// profile, writing them into the windows cs arrives with, or taking
// them from the memo cache when one is supplied. On a hit the Order and
// Profile slices are shared with the cache entry (and with every other
// component of the same shape); they are never mutated downstream.
func recurseComponent(cs *ComponentSchedule, cache *Cache, sc *recurseScratch) {
	c := cs.Comp
	if cache != nil {
		sc.key = appendSignature(sc.key[:0], c.Sub)
		if e, ok := cache.lookup(sc.key); ok {
			cs.Family, cs.Order, cs.Profile = e.family, e.order, e.profile
			return
		}
	}
	cs.Family, cs.Order = scheduleComponent(c, sc, cs.Order)
	if len(cs.Order) != c.NonSinkCount {
		panic(fmt.Sprintf("core: component %d schedule has %d jobs for %d non-sinks", c.Index, len(cs.Order), c.NonSinkCount))
	}
	n := c.Sub.NumNodes()
	profile, err := eligibilityTrace(c.Sub, cs.Order, sc.ints(n), sc.bools(n), cs.Profile)
	if err != nil {
		panic(fmt.Sprintf("core: component %d schedule invalid: %v", c.Index, err))
	}
	cs.Profile = profile
	if cache != nil {
		cache.store(sc.key, cs.Family, cs.Order, cs.Profile)
	}
}
