package dag

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// TestFromArcsKeepsFirstOccurrences checks FromArcs on arc lists with
// repeats against a direct reading of its contract: Children(u) and
// Parents(v) list the first occurrence of each arc, in arc order.
func TestFromArcsKeepsFirstOccurrences(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		names := make([]string, n)
		for v := range names {
			names[v] = fmt.Sprint("n", v)
		}
		var from, to []int32
		for k := r.Intn(3 * n); k > 0; k-- {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			from, to = append(from, int32(u)), append(to, int32(v))
			if r.Intn(3) == 0 { // repeat an earlier arc
				i := r.Intn(len(from))
				from, to = append(from, from[i]), append(to, to[i])
			}
		}
		g, err := FromArcs(names, nil, from, to)
		if err != nil {
			t.Fatal(err)
		}
		children, parents := make([][]int32, n), make([][]int32, n)
		seen := map[[2]int32]bool{}
		for i := range from {
			a := [2]int32{from[i], to[i]}
			if seen[a] {
				continue
			}
			seen[a] = true
			children[a[0]] = append(children[a[0]], a[1])
			parents[a[1]] = append(parents[a[1]], a[0])
		}
		if g.NumArcs() != len(seen) {
			t.Fatalf("%d arcs, want %d", g.NumArcs(), len(seen))
		}
		for v := 0; v < n; v++ {
			if fmt.Sprint(g.Children(v)) != fmt.Sprint(children[v]) && len(children[v])+g.OutDegree(v) > 0 {
				t.Fatalf("Children(%d) = %v, want %v (arcs %v -> %v)", v, g.Children(v), children[v], from, to)
			}
			if fmt.Sprint(g.Parents(v)) != fmt.Sprint(parents[v]) && len(parents[v])+g.InDegree(v) > 0 {
				t.Fatalf("Parents(%d) = %v, want %v (arcs %v -> %v)", v, g.Parents(v), parents[v], from, to)
			}
		}
	}
}

func TestFromArcsErrors(t *testing.T) {
	names := []string{"a", "b", "c"}
	if _, err := FromArcs(names, nil, []int32{0, 1, 2}, []int32{1, 1, 0}); err == nil || err.Error() != "dag: self-loop on node 1 (b)" {
		t.Fatalf("self-loop: %v", err)
	}
	if _, err := FromArcs(names, nil, []int32{0, 1, 2, 0}, []int32{1, 2, 0, 1}); err == nil || !strings.HasPrefix(err.Error(), "dag: cycle detected") {
		t.Fatalf("cycle: %v", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range endpoint accepted")
		}
	}()
	FromArcs(names, nil, []int32{0}, []int32{3})
}
