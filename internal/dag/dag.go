// Package dag implements the directed-acyclic-graph substrate of the
// scheduler. A graph holds the jobs of a computation and their
// dependencies: an arc u -> v means job v cannot start until job u has
// completed (u is a parent of v, v a child of u), exactly the model of
// Section 2.1 of the paper.
//
// The package splits construction from analysis. A Builder is mutable
// and grows incrementally with AddNode/AddArc; Freeze validates
// acyclicity once and produces a Frozen — an immutable compressed-
// sparse-row view with forward and backward adjacency packed into one
// shared arc arena, interned job names, and precomputed indegrees and
// topological order. Every analysis pass (transitive reduction,
// decomposition, scheduling, simulation) consumes the Frozen form, so
// the whole pipeline shares a single allocation-lean representation.
// Nodes are dense integer indices in insertion order; every node also
// carries a name so that DAGMan files round-trip.
//
// The Frozen accessors the scheduler's and the simulator's inner loops
// call never allocate: NumNodes, NumArcs, Name, Names, Children,
// Parents, OutDegree, InDegree, IsSource, IsSink, Sources, Topo,
// TopoPositions, ChildCSR, HasArc, IsBipartiteDag, StructuralEq, and
// the in-place sorts sortArcs and insertionSortByPos.
// TestNoallocSitesAllocateNothing measures each at 0 allocations.
package dag

import "fmt"

// Arc is a directed edge of the graph.
type Arc struct{ From, To int }

// Builder accumulates nodes and arcs for a graph under construction.
// It is the only mutable graph form; call Freeze (or MustFreeze) to
// obtain the immutable Frozen view the analysis passes consume.
type Builder struct {
	names   []string
	index   map[string]int
	arcFrom []int32 // arc i runs arcFrom[i] -> arcTo[i], insertion order
	arcTo   []int32
	arcSet  map[arcKey]struct{}
	outdeg  []int32
	indeg   []int32
}

type arcKey struct{ u, v int32 }

// New returns an empty builder.
func New() *Builder {
	return &Builder{index: make(map[string]int)}
}

// NewWithCapacity returns an empty builder with room preallocated for n
// nodes.
func NewWithCapacity(n int) *Builder {
	return &Builder{
		names:  make([]string, 0, n),
		index:  make(map[string]int, n),
		outdeg: make([]int32, 0, n),
		indeg:  make([]int32, 0, n),
	}
}

// AddNode adds a node with the given name and returns its index. Names
// must be unique; adding a duplicate name returns the existing index.
func (b *Builder) AddNode(name string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	i := len(b.names)
	b.names = append(b.names, name)
	b.index[name] = i
	b.outdeg = append(b.outdeg, 0)
	b.indeg = append(b.indeg, 0)
	return i
}

// AddArc adds the dependency u -> v. It panics on out-of-range indices and
// returns an error for self-loops and duplicate arcs.
func (b *Builder) AddArc(u, v int) error {
	b.checkNode(u)
	b.checkNode(v)
	if u == v {
		return fmt.Errorf("dag: self-loop on node %d (%s)", u, b.names[u])
	}
	k := arcKey{int32(u), int32(v)}
	if _, dup := b.arcSet[k]; dup {
		return fmt.Errorf("dag: duplicate arc %s -> %s", b.names[u], b.names[v])
	}
	if b.arcSet == nil {
		b.arcSet = make(map[arcKey]struct{})
	}
	b.arcSet[k] = struct{}{}
	b.arcFrom = append(b.arcFrom, int32(u))
	b.arcTo = append(b.arcTo, int32(v))
	b.outdeg[u]++
	b.indeg[v]++
	return nil
}

// MustAddArc is AddArc for construction code where duplicates are bugs.
func (b *Builder) MustAddArc(u, v int) {
	if err := b.AddArc(u, v); err != nil {
		panic(err)
	}
}

func (b *Builder) checkNode(v int) {
	if v < 0 || v >= len(b.names) {
		panic(fmt.Sprintf("dag: node %d out of range [0,%d)", v, len(b.names)))
	}
}

// NumNodes returns the number of nodes added so far.
func (b *Builder) NumNodes() int { return len(b.names) }

// NumArcs returns the number of arcs added so far.
func (b *Builder) NumArcs() int { return len(b.arcFrom) }

// Name returns the name of node v.
func (b *Builder) Name(v int) string {
	b.checkNode(v)
	return b.names[v]
}

// IndexOf returns the index of the node with the given name, or -1.
func (b *Builder) IndexOf(name string) int {
	if i, ok := b.index[name]; ok {
		return i
	}
	return -1
}

// Sinks returns the nodes with no outgoing arcs so far, in index order.
// Composition generators use this to attach the next block mid-build.
func (b *Builder) Sinks() []int {
	var out []int
	for v, d := range b.outdeg {
		if d == 0 {
			out = append(out, v)
		}
	}
	return out
}

// HasArc reports whether the arc u -> v has been added.
func (b *Builder) HasArc(u, v int) bool {
	b.checkNode(u)
	b.checkNode(v)
	_, ok := b.arcSet[arcKey{int32(u), int32(v)}]
	return ok
}

// Freeze validates acyclicity and converts the accumulated nodes and
// arcs into the immutable CSR form. Adjacency preserves AddArc order:
// Children(u) lists v in the order AddArc(u, v) was called, and
// Parents(v) lists u in the order AddArc(u, v) was called. The builder
// may be discarded (or kept growing toward a later, separate Freeze)
// afterwards; the Frozen shares nothing mutable with it.
func (b *Builder) Freeze() (*Frozen, error) {
	n := len(b.names)
	m := len(b.arcFrom)
	f := &Frozen{
		names:       b.names[:len(b.names):len(b.names)],
		index:       b.index,
		numArcs:     m,
		childStart:  make([]int32, n+1),
		parentStart: make([]int32, n+1),
		arena:       make([]int32, 2*m),
	}
	// Two stable counting sorts over the insertion-order arc list: by
	// source into the children region, by target into the parents
	// region. Stability is what preserves per-node AddArc order.
	next := make([]int32, n)
	var sum int32
	for v := 0; v < n; v++ {
		f.childStart[v] = sum
		next[v] = sum
		sum += b.outdeg[v]
	}
	f.childStart[n] = sum
	for i := 0; i < m; i++ {
		u := b.arcFrom[i]
		f.arena[next[u]] = b.arcTo[i]
		next[u]++
	}
	base := int32(m)
	sum = base
	for v := 0; v < n; v++ {
		f.parentStart[v] = sum
		next[v] = sum
		sum += b.indeg[v]
	}
	f.parentStart[n] = sum
	for i := 0; i < m; i++ {
		v := b.arcTo[i]
		f.arena[next[v]] = b.arcFrom[i]
		next[v]++
	}
	if err := f.finish(next[:0]); err != nil {
		return nil, err
	}
	return f, nil
}

// MustFreeze is Freeze for construction code where a cycle is a bug.
func (b *Builder) MustFreeze() *Frozen {
	f, err := b.Freeze()
	if err != nil {
		panic(err)
	}
	return f
}
