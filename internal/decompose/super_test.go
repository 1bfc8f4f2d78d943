package decompose

import (
	"fmt"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// builderSuper rebuilds the superdag of r the way the decomposer did
// before it collected int32 arc pairs: a dag.Builder node "C<i>" per
// component, and HasArc-guarded arcs in discovery order — shared nodes
// while detaching, then the cross-component dependency arcs.
func builderSuper(r *Result) *dag.Frozen {
	b := dag.New()
	owner := make([]int, r.Reduced.NumNodes())
	for v := range owner {
		owner[v] = -1
	}
	addArc := func(u, v int) {
		if !b.HasArc(u, v) {
			b.MustAddArc(u, v)
		}
	}
	for _, c := range r.Components {
		b.AddNode(fmt.Sprintf("C%d", c.Index))
		for _, v := range c.Nodes {
			if prev := owner[v]; prev != -1 && prev != c.Index {
				addArc(prev, c.Index)
			}
			owner[v] = c.Index
		}
	}
	for p := 0; p < r.Reduced.NumNodes(); p++ {
		a := r.ScheduledIn[p]
		if a == -1 {
			continue
		}
		for _, v := range r.Reduced.Children(p) {
			if c := r.ScheduledIn[v]; c != -1 && c != a {
				addArc(a, c)
			}
		}
	}
	return b.MustFreeze()
}

// TestSuperMatchesBuilder is the superdag differential: Super, frozen
// from the decomposer's arc pairs, has the Builder-built superdag's
// arcs in the same order — Children, Parents and Topo per node — which
// is what combineOrder consumes.
func TestSuperMatchesBuilder(t *testing.T) {
	gs := map[string]*dag.Frozen{
		"airsn":    workloads.PaperAIRSN(),
		"inspiral": workloads.PaperInspiral(),
		"montage":  workloads.PaperMontage(),
		"sdss":     workloads.PaperSDSS(),
	}
	r := rng.New(5)
	for i := 0; i < 6; i++ {
		gs[fmt.Sprintf("layered-%d", i)] = workloads.Layered(r.Split(), 3+i, 4+2*i, 0.3)
		gs[fmt.Sprintf("tilefield-%d", i)] = workloads.TileField(r.Split(), 4+i, 2, 3, 2, i%2 == 0)
	}
	for name, g := range gs {
		for _, opts := range []Options{{}, {DisableFastPath: true}} {
			if opts.DisableFastPath && g.NumNodes() > 200 {
				continue // the general search alone is slow on the paper dags
			}
			res := DecomposeOpts(g, opts)
			want := builderSuper(res)
			got := res.Super
			if got.NumNodes() != want.NumNodes() || got.NumArcs() != want.NumArcs() {
				t.Fatalf("%s %+v: %d nodes %d arcs, want %d and %d", name, opts, got.NumNodes(), got.NumArcs(), want.NumNodes(), want.NumArcs())
			}
			same := func(a, b []int32) bool { return fmt.Sprint(a) == fmt.Sprint(b) }
			for v := 0; v < got.NumNodes(); v++ {
				if !same(got.Children(v), want.Children(v)) || !same(got.Parents(v), want.Parents(v)) {
					t.Fatalf("%s %+v: component %d has children %v parents %v, want %v and %v", name, opts, v,
						got.Children(v), got.Parents(v), want.Children(v), want.Parents(v))
				}
			}
			if !same(got.Topo(), want.Topo()) {
				t.Fatalf("%s %+v: superdag topo order differs", name, opts)
			}
		}
	}
}
