package core

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dag"
)

// decodeDAG grows a dag from fuzz bytes: the first byte picks the node
// count (1..16), each following pair is an arc attempt. Arcs always run
// from the smaller to the larger index, so the result is acyclic by
// construction; self-loops and duplicates are simply skipped.
func decodeDAG(data []byte) *dag.Frozen {
	if len(data) == 0 {
		return nil
	}
	n := 1 + int(data[0])%16
	g := dag.NewWithCapacity(n)
	for v := 0; v < n; v++ {
		g.AddNode(fmt.Sprintf("j%d", v))
	}
	for i := 1; i+1 < len(data); i += 2 {
		u, v := int(data[i])%n, int(data[i+1])%n
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		g.AddArc(u, v) // duplicate arcs are rejected; skipping them is the point
	}
	return g.MustFreeze()
}

// FuzzSchedule checks the pipeline's contracts on arbitrary dags: the
// schedule is a permutation of all jobs that respects every precedence
// arc, its Combine order is the one combineNaive gives, and the
// memoized configuration is bit-identical to the uncached one.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5})
	f.Add([]byte{8, 0, 1, 0, 2, 1, 3, 2, 3})
	f.Add([]byte{16, 0, 15, 1, 14, 2, 13, 3, 12, 4, 11, 5, 10, 6, 9, 7, 8})
	f.Add([]byte{12, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := decodeDAG(data)
		if g == nil {
			return
		}
		ref := PrioritizeOpts(g, Options{})
		if err := ValidateExecutionOrder(g, ref.Order); err != nil {
			t.Fatalf("schedule invalid on %v: %v\norder: %v", data, err, ref.Order)
		}
		checkCombineOracle(t, fmt.Sprint(data), ref)
		cached := PrioritizeOpts(g, Options{Cache: NewCache()})
		if !slices.Equal(cached.Order, ref.Order) {
			t.Fatalf("cached order diverged on %v:\nref:    %v\ncached: %v", data, ref.Order, cached.Order)
		}
		if !slices.Equal(cached.Priority, ref.Priority) {
			t.Fatalf("cached priorities diverged on %v:\nref:    %v\ncached: %v", data, ref.Priority, cached.Priority)
		}
	})
}
