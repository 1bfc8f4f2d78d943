// Package dag implements the directed-acyclic-graph substrate of the
// scheduler. A graph holds the jobs of a computation and their
// dependencies: an arc u -> v means job v cannot start until job u has
// completed (u is a parent of v, v a child of u), exactly the model of
// Section 2.1 of the paper.
//
// The package splits construction from analysis. A Builder is mutable
// and grows incrementally with AddNode/AddArc, and FromArcs takes an
// arc list of int32 node ids in one step; either validates
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
// the in-place sort sortArcs.
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
	return FromArcs(b.names[:len(b.names):len(b.names)], b.index, b.arcFrom, b.arcTo)
}

// FromArcs freezes a dag straight from node names and an arc list in
// insertion order (arc i runs from[i] -> to[i]), with exactly the
// semantics of AddNode per name, AddArc per arc and Freeze, except that
// an arc repeating an earlier one is dropped instead of rejected:
// Children(u) and Parents(v) list their nodes in the order of each
// arc's first occurrence; the first self-loop in arc order is an error,
// as is a cycle; an endpoint out of range panics. It exists for callers
// that already hold node ids (the DAGMan parser, the decomposer's
// superdag) and would only spend a name map and an arc set
// round-tripping through a Builder. names and index (which may be nil)
// are retained by the result; from and to are not.
func FromArcs(names []string, index map[string]int, from, to []int32) (*Frozen, error) {
	n, m := len(names), len(from)
	if len(to) != m {
		panic(fmt.Sprintf("dag: FromArcs has %d arc sources and %d targets", m, len(to)))
	}
	// deg counts arcs per source, next is the counting sort's cursor
	// (then the duplicate scan's stamp, then the cursor again), and
	// bySrc lists arc ids grouped by source, stable.
	work := make([]int32, 2*n+m)
	deg, next, bySrc := work[:n], work[n:2*n], work[2*n:]
	for i, u := range from {
		v := to[i]
		if u < 0 || int(u) >= n || v < 0 || int(v) >= n {
			panic(fmt.Sprintf("dag: arc %d -> %d out of range [0,%d)", u, v, n))
		}
		if u == v {
			return nil, fmt.Errorf("dag: self-loop on node %d (%s)", u, names[u])
		}
		deg[u]++
	}
	var sum int32
	for u, d := range deg {
		next[u] = sum
		sum += d
	}
	for i, u := range from {
		bySrc[next[u]] = int32(i)
		next[u]++
	}
	// Within each source's group, a target already stamped with this
	// source repeats an earlier arc: it is marked dropped by arc id, so
	// the parents pass below (which runs in global arc order) skips it
	// too.
	clear(next)
	var dropped []bool
	kept, k := m, 0
	for u, d := range deg {
		stamp := int32(u) + 1
		for end := k + int(d); k < end; k++ {
			id := bySrc[k]
			if v := to[id]; next[v] != stamp {
				next[v] = stamp
				continue
			}
			if dropped == nil {
				dropped = make([]bool, m)
			}
			dropped[id] = true
			bySrc[k] = -1
			kept--
		}
	}
	f := &Frozen{
		names:      names,
		index:      index,
		numArcs:    kept,
		childStart: make([]int32, n+1),
		arena:      make([]int32, 2*kept),
	}
	k, sum = 0, 0
	for u, d := range deg {
		f.childStart[u] = sum
		for end := k + int(d); k < end; k++ {
			if id := bySrc[k]; id >= 0 {
				f.arena[sum] = to[id]
				sum++
			}
		}
	}
	f.childStart[n] = sum
	// Parents: a stable counting sort by target over the arcs in global
	// order. One backing array holds the parent offsets plus finish's
	// working storage, as in buildFrozen.
	backing := make([]int32, (n+1)+3*n)
	f.parentStart = backing[:n+1]
	clear(deg)
	for i, v := range to {
		if dropped == nil || !dropped[i] {
			deg[v]++
		}
	}
	sum = int32(kept)
	for v, d := range deg {
		f.parentStart[v] = sum
		next[v] = sum
		sum += d
	}
	f.parentStart[n] = sum
	for i, v := range to {
		if dropped == nil || !dropped[i] {
			f.arena[next[v]] = from[i]
			next[v]++
		}
	}
	if err := f.finish(backing[n+1 : n+1 : len(backing)]); err != nil {
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
