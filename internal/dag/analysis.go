package dag

import "repro/internal/bitset"

// Levels returns, for each node, the length of the longest path from any
// source to it (sources are level 0). The second result is the number of
// nodes per level.
func (f *Frozen) Levels() ([]int, []int) {
	level := make([]int, f.NumNodes())
	maxLevel := 0
	for _, u := range f.topo {
		for _, p := range f.Parents(int(u)) {
			if level[p]+1 > level[u] {
				level[u] = level[p] + 1
			}
		}
		if level[u] > maxLevel {
			maxLevel = level[u]
		}
	}
	counts := make([]int, maxLevel+1)
	for _, l := range level {
		counts[l]++
	}
	return level, counts
}

// CriticalPathLength returns the number of nodes on a longest directed
// path (so a single node has critical path length 1). Zero for an empty
// graph.
func (f *Frozen) CriticalPathLength() int {
	if f.NumNodes() == 0 {
		return 0
	}
	_, counts := f.Levels()
	return len(counts)
}

// MaxLevelWidth returns the largest number of nodes sharing one level —
// a cheap proxy for the dag's parallelism ("width" in the paper's AIRSN
// parameterization).
func (f *Frozen) MaxLevelWidth() int {
	if f.NumNodes() == 0 {
		return 0
	}
	_, counts := f.Levels()
	w := 0
	for _, c := range counts {
		if c > w {
			w = c
		}
	}
	return w
}

// Reachable returns the set of nodes reachable from start by directed
// paths of length >= 0 (start itself is included).
func (f *Frozen) Reachable(start int) *bitset.Set {
	f.checkNode(start)
	seen := bitset.New(f.NumNodes())
	stack := []int32{int32(start)}
	seen.Add(start)
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range f.Children(int(u)) {
			if !seen.Contains(int(v)) {
				seen.Add(int(v))
				stack = append(stack, v)
			}
		}
	}
	return seen
}

// HasPath reports whether there is a directed path (length >= 1) from u
// to v.
func (f *Frozen) HasPath(u, v int) bool {
	f.checkNode(u)
	f.checkNode(v)
	if u == v {
		return false
	}
	seen := bitset.New(f.NumNodes())
	stack := make([]int32, 0, 16)
	for _, c := range f.Children(u) {
		if int(c) == v {
			return true
		}
		if !seen.Contains(int(c)) {
			seen.Add(int(c))
			stack = append(stack, c)
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range f.Children(int(x)) {
			if int(c) == v {
				return true
			}
			if !seen.Contains(int(c)) {
				seen.Add(int(c))
				stack = append(stack, c)
			}
		}
	}
	return false
}

// UndirectedComponents returns a component id per node, ignoring arc
// orientation, and the number of components.
func (f *Frozen) UndirectedComponents() ([]int, int) {
	n := f.NumNodes()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	next := 0
	var stack []int32
	for v := 0; v < n; v++ {
		if comp[v] != -1 {
			continue
		}
		comp[v] = next
		stack = append(stack[:0], int32(v))
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range f.Children(int(u)) {
				if comp[w] == -1 {
					comp[w] = next
					stack = append(stack, w)
				}
			}
			for _, w := range f.Parents(int(u)) {
				if comp[w] == -1 {
					comp[w] = next
					stack = append(stack, w)
				}
			}
		}
		next++
	}
	return comp, next
}

// IsBipartiteDag reports whether every arc runs from a source to a sink,
// i.e. the node set splits into sources U and sinks V with all arcs
// U -> V. (This is the paper's notion of a bipartite dag: a two-level
// dag, not merely 2-colorable.)
//
//prio:pure
func (f *Frozen) IsBipartiteDag() bool {
	if f.NumNodes() == 0 {
		return false
	}
	hasArc := false
	for u := 0; u < f.NumNodes(); u++ {
		for _, v := range f.Children(u) {
			hasArc = true
			if f.InDegree(u) != 0 || f.OutDegree(int(v)) != 0 {
				return false
			}
		}
	}
	// A bipartite dag needs both parts nonempty, hence at least one arc;
	// an arcless graph is all isolated nodes (sources that are sinks).
	return hasArc
}
