package dag

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestFreezeBatchMatchesFromArcs lays random dags out back to back the
// way the decomposer does and checks each graph FreezeBatch returns
// against the same dag frozen on its own: adjacency in both directions,
// topological order and sources.
func TestFreezeBatchMatchesFromArcs(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	var (
		names      []string
		bounds     = []int{0}
		childStart []int32
		arena      []int32
		want       []*Frozen
	)
	for k := 0; k < 40; k++ {
		n := 1 + r.Intn(10)
		local := make([]string, n)
		for v := range local {
			local[v] = fmt.Sprint("g", k, "n", v)
		}
		var from, to []int32
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Intn(3) == 0 {
					from, to = append(from, int32(u)), append(to, int32(v))
				}
			}
		}
		g, err := FromArcs(local, nil, from, to)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, g)
		names = append(names, local...)
		bounds = append(bounds, len(names))
		childStart = append(childStart, 0)
		for u := 0; u < n; u++ {
			arena = append(arena, g.Children(u)...)
			childStart = append(childStart, g.childStart[u+1])
		}
		arena = append(arena, make([]int32, g.NumArcs())...)
	}
	got, err := FreezeBatch(names, bounds, childStart, arena)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d graphs, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := &got[i]
		if !g.StructuralEq(w) {
			t.Fatalf("graph %d: not structurally equal", i)
		}
		if fmt.Sprint(g.Topo(), g.Sources()) != fmt.Sprint(w.Topo(), w.Sources()) {
			t.Fatalf("graph %d: topo %v sources %v, want %v %v", i, g.Topo(), g.Sources(), w.Topo(), w.Sources())
		}
		for v := 0; v < w.NumNodes(); v++ {
			if fmt.Sprint(g.Parents(v)) != fmt.Sprint(w.Parents(v)) {
				t.Fatalf("graph %d: Parents(%d) = %v, want %v", i, v, g.Parents(v), w.Parents(v))
			}
		}
	}
}

func TestFreezeBatchErrors(t *testing.T) {
	names := []string{"a", "b"}
	if _, err := FreezeBatch(names, []int{0, 2}, []int32{0, 1}, []int32{1, 0}); err == nil {
		t.Fatal("short childStart accepted")
	}
	if _, err := FreezeBatch(names, []int{0, 2}, []int32{0, 1, 1}, []int32{1, 0, 0}); err == nil {
		t.Fatal("oversized arena accepted")
	}
	// a -> b -> a
	if _, err := FreezeBatch(names, []int{0, 2}, []int32{0, 1, 2}, []int32{1, 0, 0, 0}); err == nil || !strings.HasPrefix(err.Error(), "dag: cycle detected") {
		t.Fatalf("cycle: %v", err)
	}
}
