package decompose

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// inducedSubgraph is the oracle for a component's graph: the subgraph
// that nodes (ascending) induce on g, built by dag.FromArcs from g's
// arcs in node and adjacency order, node j named as nodes[j] is in g.
func inducedSubgraph(t *testing.T, g *dag.Frozen, nodes []int) *dag.Frozen {
	t.Helper()
	local := make(map[int32]int32, len(nodes))
	names := make([]string, len(nodes))
	for j, v := range nodes {
		local[int32(v)] = int32(j)
		names[j] = g.Name(v)
	}
	var from, to []int32
	for j, v := range nodes {
		for _, c := range g.Children(v) {
			if k, ok := local[c]; ok {
				from, to = append(from, int32(j)), append(to, k)
			}
		}
	}
	sub, err := dag.FromArcs(names, nil, from, to)
	if err != nil {
		t.Fatal(err)
	}
	return sub
}

// sameGraph fails unless got and want have the same adjacency in both
// directions, topological order and sources, and with named the same
// names.
func sameGraph(t *testing.T, what string, got, want *dag.Frozen, named bool) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumArcs() != want.NumArcs() {
		t.Fatalf("%s: %d nodes %d arcs, want %d and %d", what, got.NumNodes(), got.NumArcs(), want.NumNodes(), want.NumArcs())
	}
	for v := 0; v < got.NumNodes(); v++ {
		if named && got.Name(v) != want.Name(v) {
			t.Fatalf("%s: node %d is %q, want %q", what, v, got.Name(v), want.Name(v))
		}
		if !slices.Equal(got.Children(v), want.Children(v)) || !slices.Equal(got.Parents(v), want.Parents(v)) {
			t.Fatalf("%s: node %d has children %v parents %v, want %v and %v", what, v,
				got.Children(v), got.Parents(v), want.Children(v), want.Parents(v))
		}
	}
	if !slices.Equal(got.Topo(), want.Topo()) || !slices.Equal(got.TopoPositions(), want.TopoPositions()) || !slices.Equal(got.Sources(), want.Sources()) {
		t.Fatalf("%s: topological precomputes differ", what)
	}
}

// TestSubMatchesInducedSubgraph is the differential for component
// windows: on random dags and the paper dags, Result.Sub(i) must equal
// the subgraph Nodes(i) induces on the reduced dag, and so must
// Window(i) frozen into one dag.View reused across every component in
// turn, the way the Recurse phase reads them.
func TestSubMatchesInducedSubgraph(t *testing.T) {
	gs := map[string]*dag.Frozen{
		"airsn":    workloads.PaperAIRSN(),
		"inspiral": workloads.PaperInspiral(),
		"montage":  workloads.PaperMontage(),
		"sdss":     workloads.PaperSDSS(),
	}
	r := rng.New(23)
	for i := 0; i < 20; i++ {
		n := 2 + r.Intn(40)
		b := dag.New()
		for v := 0; v < n; v++ {
			b.AddNode(fmt.Sprint("n", v))
		}
		p := 0.05 + 0.3*r.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < p {
					b.MustAddArc(u, v)
				}
			}
		}
		gs[fmt.Sprint("random-", i)] = b.MustFreeze()
		gs[fmt.Sprint("layered-", i)] = randomLayered(r.Split(), 2+i%5, 2+i%7, 0.3)
	}
	for name, g := range gs {
		res := Decompose(g)
		var view dag.View
		for i := range res.Components {
			want := inducedSubgraph(t, res.Reduced, res.Nodes(i))
			sameGraph(t, fmt.Sprintf("%s component %d Sub", name, i), res.Sub(i), want, true)
			childStart, children := res.Window(i)
			got, err := view.Freeze(nil, childStart, children)
			if err != nil {
				t.Fatal(err)
			}
			for v := 0; v < got.NumNodes(); v++ {
				if got.Name(v) != "" {
					t.Fatalf("%s component %d: unnamed view names node %d %q", name, i, v, got.Name(v))
				}
			}
			sameGraph(t, fmt.Sprintf("%s component %d view", name, i), got, want, false)
		}
	}
}
