package dag

import (
	"fmt"
	"sort"
)

// Frozen is the immutable compressed-sparse-row form of a dag, produced
// by Builder.Freeze. Forward and backward adjacency live in one shared
// arc arena: arena[childStart[v]:childStart[v+1]] are v's children and
// arena[parentStart[v]:parentStart[v+1]] are v's parents (both start
// slices hold absolute arena offsets, so Reverse can swap them over the
// same arena). The topological order, its inverse permutation, and the
// source list are computed once at freeze time; every accessor is a
// bounds-checked slice view, so analysis passes traverse the graph
// without copying adjacency.
//
// A Frozen is never mutated after construction. Accessors that return
// slices (Children, Parents, Names, Topo, TopoPositions, Sources)
// return views into shared storage which callers must not modify.
type Frozen struct {
	names       []string
	index       map[string]int // nil for derived graphs; IndexOf then scans
	numArcs     int
	childStart  []int32 // len n+1, offsets into arena
	parentStart []int32 // len n+1, offsets into arena
	arena       []int32 // both adjacency directions, len 2*numArcs
	topo        []int32 // Kahn order, deterministic (see finish)
	pos         []int32 // pos[v] = rank of v in topo
	sources     []int32 // indegree-0 nodes in index order
}

// buildFrozen assembles a Frozen from node names and a forward CSR. The
// arena must have length 2m with the children region filled in
// [0, m); buildFrozen derives the parents region. index may be nil.
// Takes ownership of every argument.
func buildFrozen(names []string, index map[string]int, childStart, arena []int32) (*Frozen, error) {
	f := &Frozen{}
	if err := f.init(names, index, childStart, arena, make([]int32, 4*len(names)+1)); err != nil {
		return nil, err
	}
	return f, nil
}

// init fills f from node names and a forward CSR laid out as for
// buildFrozen, scanning nodes in ascending index order so Parents(v)
// lists parents in ascending-u grouped adjacency order. backing must
// have length 4n+1: it holds the parent offsets plus finish's working
// storage (indegree counts, topo queue, position index), so a frozen
// graph costs one array beyond its arena.
func (f *Frozen) init(names []string, index map[string]int, childStart, arena, backing []int32) error {
	n := len(names)
	m := int(childStart[n])
	*f = Frozen{
		names:       names,
		index:       index,
		numArcs:     m,
		childStart:  childStart,
		parentStart: backing[:n+1],
		arena:       arena,
	}
	scratch := backing[n+1 : n+1+n]
	clear(scratch) // a View reuses backing
	for ci := 0; ci < m; ci++ {
		scratch[arena[ci]]++
	}
	sum := int32(m)
	for v := 0; v < n; v++ {
		f.parentStart[v] = sum
		sum += scratch[v]
		scratch[v] = f.parentStart[v]
	}
	f.parentStart[n] = sum
	for u := 0; u < n; u++ {
		for ci := childStart[u]; ci < childStart[u+1]; ci++ {
			v := arena[ci]
			arena[scratch[v]] = int32(u)
			scratch[v]++
		}
	}
	return f.finish(backing[n+1 : n+1 : len(backing)])
}

// View is reusable storage for freezing many small dags one after
// another: the components of a decomposition, each kept only as a
// window of a forward CSR shared by all of them. Freeze re-initializes
// the one Frozen the View owns, growing its storage only when a graph
// outgrows every earlier one, so a loop over thousands of graphs costs
// a handful of allocations and no GC-scanned header per graph. The zero
// View is ready to use.
type View struct {
	g       Frozen
	blank   []string // unnamed nodes
	arena   []int32
	backing []int32
}

// Freeze makes the View's graph the dag whose forward CSR is childStart
// (n+1 offsets counted from 0) over children[:childStart[n]], and
// returns it. Its node v is named names[v], or "" when names is nil.
// The graph shares childStart and names with the caller and copies the
// children, so the caller keeps ownership of all three; it is valid
// until the next Freeze, which overwrites it. Freeze returns an error
// if the graph has a cycle.
func (w *View) Freeze(names []string, childStart, children []int32) (*Frozen, error) {
	n := len(childStart) - 1
	m := int(childStart[n])
	w.Grow(n, m)
	if names == nil {
		names = w.blank[:n]
	}
	arena := w.arena[:2*m]
	copy(arena, children[:m])
	if err := w.g.init(names, nil, childStart[:n+1:n+1], arena, w.backing[:4*n+1]); err != nil {
		return nil, err
	}
	return &w.g, nil
}

// Grow makes room for graphs of up to n nodes and m arcs, so a caller
// that knows the largest of the graphs it will freeze can size the
// View once.
func (w *View) Grow(n, m int) {
	w.blank = grow(w.blank, n)
	w.arena = grow(w.arena, 2*m)
	w.backing = grow(w.backing, 4*n+1)
}

// grow returns s with capacity for at least n elements, keeping none of
// its contents when it reallocates.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, max(n, 2*cap(s)))
	}
	return s
}

// finish computes the topological precomputes (topo, pos, sources) and
// returns an error if the graph is cyclic. scratch is reused for the
// working storage when it has the capacity: the indegree counts at
// cap >= n, and additionally the topo queue and position index (which
// finish retains in the Frozen) at cap >= 3n.
func (f *Frozen) finish(scratch []int32) error {
	n := f.NumNodes()
	var indeg, queue, pos []int32
	switch {
	case cap(scratch) >= 3*n:
		indeg = scratch[:n]
		queue = scratch[n : n : 2*n]
		pos = scratch[2*n : 3*n : 3*n]
	case cap(scratch) >= n:
		indeg = scratch[:n]
		queue = make([]int32, 0, n)
		pos = make([]int32, n)
	default:
		indeg = make([]int32, n)
		queue = make([]int32, 0, n)
		pos = make([]int32, n)
	}
	for v := 0; v < n; v++ {
		indeg[v] = f.parentStart[v+1] - f.parentStart[v]
	}
	// Kahn's algorithm with the ready queue doubling as the result: the
	// queue is seeded in index order and drained with a head index (no
	// re-slicing, so the backing array is written exactly once), and
	// children are appended in adjacency order, making the order
	// deterministic. The seeds prefix is exactly the source list.
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			queue = append(queue, int32(v))
		}
	}
	nSources := len(queue)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for ci := f.childStart[u]; ci < f.childStart[u+1]; ci++ {
			v := f.arena[ci]
			indeg[v]--
			if indeg[v] == 0 {
				queue = append(queue, v)
			}
		}
	}
	if len(queue) != n {
		return fmt.Errorf("dag: cycle detected (%d of %d nodes sorted)", len(queue), n)
	}
	f.topo = queue
	f.sources = queue[:nSources:nSources]
	f.pos = pos
	for i, v := range f.topo {
		f.pos[v] = int32(i)
	}
	return nil
}

func (f *Frozen) checkNode(v int) {
	if v < 0 || v >= len(f.names) {
		panic(fmt.Sprintf("dag: node %d out of range [0,%d)", v, len(f.names)))
	}
}

// NumNodes returns the number of nodes.
//
//prio:pure
func (f *Frozen) NumNodes() int { return len(f.names) }

// NumArcs returns the number of arcs.
//
//prio:pure
func (f *Frozen) NumArcs() int { return f.numArcs }

// Name returns the name of node v.
//
//prio:pure
func (f *Frozen) Name(v int) string {
	f.checkNode(v)
	return f.names[v]
}

// Names returns the node names indexed by node. The caller must not
// modify the returned slice.
//
//prio:pure
func (f *Frozen) Names() []string { return f.names }

// IndexOf returns the index of the node with the given name, or -1.
// Graphs derived from other graphs (reductions, subgraphs) drop the
// name index and fall back to a linear scan.
//
//prio:pure
func (f *Frozen) IndexOf(name string) int {
	if f.index != nil {
		// The map is shared with the builder that froze this graph, which
		// may have grown since; ignore entries beyond our node range.
		if i, ok := f.index[name]; ok && i < len(f.names) {
			return i
		}
		return -1
	}
	for i, n := range f.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Children returns the out-neighbours of v in arc-insertion order, as a
// view into the shared arc arena. The caller must not modify it.
//
//prio:pure
func (f *Frozen) Children(v int) []int32 {
	f.checkNode(v)
	return f.arena[f.childStart[v]:f.childStart[v+1]]
}

// Parents returns the in-neighbours of v as a view into the shared arc
// arena. The caller must not modify it.
//
//prio:pure
func (f *Frozen) Parents(v int) []int32 {
	f.checkNode(v)
	return f.arena[f.parentStart[v]:f.parentStart[v+1]]
}

// OutDegree returns the number of children of v.
//
//prio:pure
func (f *Frozen) OutDegree(v int) int {
	f.checkNode(v)
	return int(f.childStart[v+1] - f.childStart[v])
}

// InDegree returns the number of parents of v.
//
//prio:pure
func (f *Frozen) InDegree(v int) int {
	f.checkNode(v)
	return int(f.parentStart[v+1] - f.parentStart[v])
}

// IsSource reports whether v has no parents.
//
//prio:pure
func (f *Frozen) IsSource(v int) bool { return f.InDegree(v) == 0 }

// IsSink reports whether v has no children.
//
//prio:pure
func (f *Frozen) IsSink(v int) bool { return f.OutDegree(v) == 0 }

// Sources returns the nodes with no parents, in index order, as a view
// into shared storage. The caller must not modify it.
//
//prio:pure
func (f *Frozen) Sources() []int32 { return f.sources }

// Sinks returns the nodes with no children, in index order, in a
// freshly allocated slice.
//
//prio:pure
func (f *Frozen) Sinks() []int32 {
	var out []int32
	for v := 0; v < f.NumNodes(); v++ {
		if f.IsSink(v) {
			out = append(out, int32(v))
		}
	}
	return out
}

// Topo returns the nodes in the precomputed topological order (Kahn's
// algorithm, FIFO over ready nodes seeded in index order, children
// appended in adjacency order) as a view into shared storage. The
// caller must not modify it.
//
//prio:pure
func (f *Frozen) Topo() []int32 { return f.topo }

// TopoPositions returns pos such that pos[v] is v's rank in Topo order,
// as a view into shared storage. The caller must not modify it.
//
//prio:pure
func (f *Frozen) TopoPositions() []int32 { return f.pos }

// ChildCSR returns the forward adjacency in raw CSR form: childStart
// has length NumNodes()+1 holding absolute offsets into arena, so the
// children of v are arena[childStart[v]:childStart[v+1]]. Both slices
// are views into shared storage which the caller must not modify. The
// simulation kernel's hot loop indexes these arrays directly instead of
// calling Children per node.
//
//prio:pure
func (f *Frozen) ChildCSR() (childStart, arena []int32) {
	return f.childStart, f.arena
}

// HasArc reports whether the arc u -> v exists.
//
//prio:pure
func (f *Frozen) HasArc(u, v int) bool {
	f.checkNode(u)
	f.checkNode(v)
	for ci := f.childStart[u]; ci < f.childStart[u+1]; ci++ {
		if int(f.arena[ci]) == v {
			return true
		}
	}
	return false
}

// Arcs returns all arcs sorted by (From, To).
func (f *Frozen) Arcs() []Arc {
	out := make([]Arc, 0, f.numArcs)
	for u := 0; u < f.NumNodes(); u++ {
		for _, v := range f.Children(u) {
			out = append(out, Arc{u, int(v)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Reverse returns the graph with every arc flipped. Node indices and
// names are preserved; the arc arena is shared with f (only the start
// arrays swap roles), and the topological precomputes are recomputed
// for the reversed orientation.
func (f *Frozen) Reverse() *Frozen {
	r := &Frozen{
		names:       f.names,
		index:       f.index,
		numArcs:     f.numArcs,
		childStart:  f.parentStart,
		parentStart: f.childStart,
		arena:       f.arena,
	}
	if err := r.finish(nil); err != nil {
		panic(err) // unreachable: reversing a dag cannot create a cycle
	}
	return r
}
