package decompose

import (
	"fmt"
	"slices"

	"repro/internal/dag"
)

// Component is one detached piece of the dag, in detachment order. It
// holds no pointers: its jobs and arcs are a window over storage shared
// by the whole Result, read through Result.Nodes, Result.Window and
// Result.Sub.
type Component struct {
	// Index is the component's position in detachment order.
	Index int
	// NonSinkCount is the number of the component's jobs that have
	// children within it — the jobs that its schedule executes.
	NonSinkCount int
	// Bipartite records whether the component is a two-level dag (every
	// internal arc runs source -> sink).
	Bipartite bool
	// FastPath records whether the component was detached by the
	// bipartite fast path — i.e. it is a maximal connected bipartite
	// building block in the sense of the theoretical algorithm
	// (Section 2.2 Step 2). A component can be Bipartite but not
	// FastPath when the general closure happened to produce a two-level
	// dag in a round where the strict decomposition would have failed.
	FastPath bool
	// The window: members[lo:hi] are the jobs, childStart[lo+Index :
	// hi+Index+1] their local child offsets, and children[arc:] the
	// arcs those offsets count.
	lo, hi, arc int32
}

// Result is the outcome of decomposition.
type Result struct {
	// Reduced is the input dag with all shortcut arcs removed (Step 1);
	// Shortcuts lists the removed arcs.
	Reduced   *dag.Frozen
	Shortcuts []dag.Arc
	// Components lists the detached components in detachment order.
	Components []Component
	// Super is the superdag: node i is component i (its name is empty);
	// an arc i -> j records that component j cannot start before
	// component i — a sink of i reappears in j, or a job scheduled in j
	// depends on one scheduled in i.
	Super *dag.Frozen
	// ScheduledIn[v] is the index of the component whose schedule
	// executes job v, or -1 when v is a sink of the whole dag (executed
	// in the final phase).
	ScheduledIn []int

	// Every component's members, then its local-index child CSR, back
	// to back in component order (see Component).
	members    []int
	childStart []int32
	children   []int32
}

// Nodes returns the original node ids of component i's jobs, ascending;
// the component's local node j is Nodes(i)[j]. A job can appear in two
// components: as a sink of an earlier one and again in a later one
// (where it is eventually executed or deferred as a dag sink). The
// slice is a view into shared storage which the caller must not modify.
func (r *Result) Nodes(i int) []int {
	c := &r.Components[i]
	return r.members[c.lo:c.hi:c.hi]
}

// Window returns component i's subgraph — the one induced by Nodes(i)
// on Reduced — as a forward CSR over local node indices: the children
// of local node j are children[childStart[j]:childStart[j+1]], the
// offsets counted from 0. A component's arcs are the reduced arcs from
// the jobs it schedules to its other members. dag.View.Freeze turns the
// window into a graph; both slices are views into shared storage which
// the caller must not modify.
func (r *Result) Window(i int) (childStart, children []int32) {
	c := &r.Components[i]
	lo, hi := int(c.lo)+i, int(c.hi)+i+1
	childStart = r.childStart[lo:hi:hi]
	return childStart, r.children[c.arc : int(c.arc)+int(childStart[len(childStart)-1])]
}

// Sub builds component i's subgraph as a new graph, its local node j
// named as Nodes(i)[j] is in Reduced. Hot loops over many components
// freeze Window into one reused dag.View instead.
func (r *Result) Sub(i int) *dag.Frozen {
	nodes := r.Nodes(i)
	names := make([]string, len(nodes))
	for j, v := range nodes {
		names[j] = r.Reduced.Name(v)
	}
	childStart, children := r.Window(i)
	g, err := new(dag.View).Freeze(names, childStart, children)
	if err != nil {
		panic(err) // unreachable: an induced subgraph of a dag is a dag
	}
	return g
}

// Options tunes the decomposition; no field changes the result.
type Options struct {
	// ReduceCache, when non-nil, memoizes the Step 1 transitive
	// reduction by graph fingerprint, so repeated pipeline stages over
	// the same dag (prio + theoretical, or several simulator policies)
	// share one reduction. The cached Reduced graph and Shortcuts slice
	// are shared across hits and must be treated as immutable.
	ReduceCache *dag.ReduceCache
}

// Decompose runs Steps 1-2 of the heuristic on g with default options.
//
//prio:pure
func Decompose(g *dag.Frozen) *Result { return DecomposeOpts(g, Options{}) }

// DecomposeOpts runs Steps 1-2 of the heuristic on g.
//
//prio:pure
func DecomposeOpts(g *dag.Frozen, opts Options) *Result {
	d := newDecomposer(g, opts)
	for d.aliveCount > 0 {
		sources := d.currentSources()
		if d.bipartiteBlocks(sources) {
			for _, b := range d.blocks {
				d.detach(d.blockNodes[b.lo:b.hi], true, true)
			}
			continue
		}
		nodes := d.minimalClosure(sources)
		d.detach(nodes, d.isBipartiteSet(nodes), false)
	}
	return d.finish()
}

// newDecomposer reduces g (Step 1) and readies the peeling loop over
// the reduced dag.
func newDecomposer(g *dag.Frozen, opts Options) *decomposer {
	reduced, shortcuts := g.TransitiveReductionCached(opts.ReduceCache)
	n := reduced.NumNodes()
	d := &decomposer{
		g:        reduced,
		alive:    make([]bool, n),
		inAlive:  make([]int32, n),
		outAlive: make([]int32, n),
		owner:    make([]int32, n),
		first:    make([]int32, n),
		mark:     make([]int32, n),
		inBlock:  make([]bool, n),
		isSource: make([]bool, n),
		assigned: make([]bool, n),
		result: &Result{
			Reduced:     reduced,
			Shortcuts:   shortcuts,
			ScheduledIn: make([]int, n),
		},
	}
	for v := 0; v < n; v++ {
		d.alive[v] = true
		d.inAlive[v] = int32(reduced.InDegree(v))
		d.outAlive[v] = int32(reduced.OutDegree(v))
		d.owner[v] = -1
		d.first[v] = -1
		d.mark[v] = -1
		d.result.ScheduledIn[v] = -1
	}
	d.aliveCount = n
	return d
}

type decomposer struct {
	g        *dag.Frozen
	alive    []bool
	inAlive  []int32 // number of alive parents
	outAlive []int32 // number of alive children
	// A job belongs to at most two components: owner is the last one
	// that contained it (or -1), first the earlier one that held it as a
	// sink it could not yet detach (or -1). These two arrays are all the
	// membership peeling records; cutWindows rebuilds the rest.
	owner      []int32
	first      []int32
	shared     int     // jobs with first != -1
	arcs       int     // total component arcs
	kinds      []kind  // per component, in detachment order
	mark       []int32 // scratch: out-degree in detach, local index in cutWindows, else -1
	inBlock    []bool  // scratch: membership of the block being closed or detached
	isSource   []bool  // scratch: current-round sources (bipartiteBlocks)
	assigned   []bool  // scratch: sources grouped this round (bipartiteBlocks)
	sources    []int   // scratch: the current round's sources
	blockNodes []int   // scratch: nodes of this round's fast-path blocks, back to back
	blocks     []span  // scratch: this round's fast-path blocks
	srcQueue   []int   // scratch: source queue of the block being grown
	scc        sccScratch
	aliveCount int
	result     *Result
}

// sccScratch is the general round's working storage, allocated on the
// first general round and reset after each one over the nodes it
// touched. Per node: num is the DFS number (-1 unvisited), low Tarjan's
// low link, comp the finished component (-1 while on the stack), and
// blocked whether the node has an arc into a finished component that
// holds or reaches a source.
type sccScratch struct {
	num, low, comp []int32
	blocked        []bool
	feeds          []bool  // per component: it holds or reaches a source
	visited        []int32 // nodes numbered this round, in visit order
	stack          []int32 // Tarjan's stack
	frames         []frame // the DFS call stack
	minimal        []int32 // the smallest source of each minimal component
	closures       []int   // closures of the minimal components, back to back
}

// frame is a DFS call: node x with its successors before next done.
type frame struct{ x, next int32 }

// kind is what a component's record in Result says about how it was
// detached; cutWindows writes the records once their number is known.
type kind struct{ bipartite, fastPath bool }

// span is one fast-path block: blockNodes[lo:hi], grown from source
// minNode, its smallest member source.
type span struct{ lo, hi, minNode int }

// finish cuts the component windows once peeling (Step 2) is done and
// builds the superdag.
func (d *decomposer) finish() *Result {
	d.cutWindows()
	from, to := d.superArcs()
	super, err := dag.FromArcs(make([]string, len(d.result.Components)), nil, from, to)
	if err != nil {
		panic(err) // unreachable: every arc runs from an earlier component to a later one
	}
	d.result.Super = super
	return d.result
}

// cutWindows lays every component out in storage shared by the whole
// Result: one member array and one local-index child CSR, with no
// allocation per component. Walking jobs in index order leaves each
// component's members ascending. A component's arcs are the reduced
// arcs from the jobs it schedules to its other members: exactly the
// arcs whose both endpoints were alive members when it was detached.
func (d *decomposer) cutWindows() {
	k := len(d.kinds)
	comps := make([]Component, k)
	for _, i := range d.result.ScheduledIn {
		if i != -1 {
			comps[i].NonSinkCount++
		}
	}
	bounds := make([]int, k+1)
	for v, o := range d.owner {
		bounds[o+1]++
		if f := d.first[v]; f != -1 {
			bounds[f+1]++
		}
	}
	for i := 0; i < k; i++ {
		bounds[i+1] += bounds[i]
	}
	members := make([]int, bounds[k])
	next := make([]int, k)
	copy(next, bounds)
	for v, o := range d.owner {
		if f := d.first[v]; f != -1 {
			members[next[f]] = v
			next[f]++
		}
		members[next[o]] = v
		next[o]++
	}

	childStart := make([]int32, len(members)+k)
	children := make([]int32, d.arcs)
	a := 0
	for i, kd := range d.kinds {
		lo, hi := bounds[i], bounds[i+1]
		nodes := members[lo:hi]
		for j, v := range nodes {
			d.mark[v] = int32(j)
		}
		cs := childStart[lo+i : hi+i+1]
		base := a
		for j, u := range nodes {
			if d.result.ScheduledIn[u] == i {
				for _, c := range d.g.Children(u) {
					if d.mark[c] >= 0 {
						children[a] = d.mark[c]
						a++
					}
				}
			}
			cs[j+1] = int32(a - base)
		}
		for _, v := range nodes {
			d.mark[v] = -1
		}
		comps[i].Index, comps[i].Bipartite, comps[i].FastPath = i, kd.bipartite, kd.fastPath
		comps[i].lo, comps[i].hi, comps[i].arc = int32(lo), int32(hi), int32(base)
	}
	r := d.result
	r.Components, r.members, r.childStart, r.children = comps, members, childStart, children
}

// superArcs lists the superdag's arcs, repeats included, in the order
// dag.FromArcs keeps each arc's first occurrence — the order
// combineOrder sees. First come the composition arcs: a job that an
// earlier component held as a sink links it to the later one, listed
// by the later component and then by job. Then come the dependency
// arcs, the execution-order constraints the composition arcs alone can
// miss: an interior non-sink of a component may have children outside
// it, and those children are executed by later components that need not
// share any node with it. For every reduced arc p -> v whose endpoints
// are scheduled in different components, the parent's component must
// precede the child's. All arcs point from an earlier-detached
// component to a later one, so the superdag is acyclic.
func (d *decomposer) superArcs() (from, to []int32) {
	from = make([]int32, 0, d.shared+d.g.NumArcs())
	to = make([]int32, 0, d.shared+d.g.NumArcs())
	for i := range d.result.Components {
		for _, v := range d.result.Nodes(i) {
			if f := d.first[v]; f != -1 && int(d.owner[v]) == i {
				from, to = append(from, f), append(to, int32(i))
			}
		}
	}
	scheduledIn := d.result.ScheduledIn
	for p, a := range scheduledIn {
		if a == -1 {
			continue
		}
		for _, v := range d.g.Children(p) {
			if b := scheduledIn[v]; b != -1 && b != a {
				from, to = append(from, int32(a)), append(to, int32(b))
			}
		}
	}
	return from, to
}

// currentSources returns the alive nodes with no alive parents,
// ascending, in scratch reused every round.
func (d *decomposer) currentSources() []int {
	out := d.sources[:0]
	for v := 0; v < d.g.NumNodes(); v++ {
		if d.alive[v] && d.inAlive[v] == 0 {
			out = append(out, v)
		}
	}
	if len(out) == 0 {
		panic("decompose: nonempty remnant without sources (cycle?)")
	}
	d.sources = out
	return out
}

// bipartiteBlocks partitions (a subset of) the current sources into
// maximal connected bipartite building blocks: closures in which every
// parent of every reached sink is itself a current source. Sources whose
// closure touches an interior (non-source) parent are left for the
// general path. Isolated sources form trivial single-node blocks. The
// blocks land in d.blocks, ordered by smallest source, over nodes in
// d.blockNodes; it reports whether there is any.
func (d *decomposer) bipartiteBlocks(sources []int) bool {
	for _, s := range sources {
		d.isSource[s] = true
	}
	// A round's blocks are disjoint sets of alive nodes grown from
	// distinct sources, so both scratch slices are sized once. Each
	// closure grows at the tail of blockNodes and is truncated away when
	// it fails, so failed attempts cost no allocations.
	if cap(d.blocks) < len(sources) {
		d.blocks = make([]span, 0, len(sources))
	}
	if d.blockNodes == nil {
		d.blockNodes = make([]int, 0, d.aliveCount)
	}
	d.blocks = d.blocks[:0]
	buf := d.blockNodes[:0]
	for _, s := range sources {
		if d.assigned[s] {
			continue
		}
		lo := len(buf)
		buf = append(buf, s)
		srcs := append(d.srcQueue[:0], s)
		minNode := s
		d.inBlock[s] = true
		ok := true
		for i := 0; i < len(srcs); i++ {
			u := srcs[i]
			for _, c := range d.g.Children(u) {
				if !d.alive[c] || d.inBlock[c] {
					continue
				}
				// every alive parent of the sink must be a current source
				for _, p := range d.g.Parents(int(c)) {
					if d.alive[p] && !d.isSource[p] {
						ok = false
					}
				}
				if !ok {
					break
				}
				d.inBlock[c] = true
				buf = append(buf, int(c))
				for _, p := range d.g.Parents(int(c)) {
					if d.alive[p] && !d.inBlock[p] {
						d.inBlock[p] = true
						buf = append(buf, int(p))
						srcs = append(srcs, int(p))
						if int(p) < minNode {
							minNode = int(p)
						}
					}
				}
			}
			if !ok {
				break
			}
		}
		// Mark every source pulled into this closure as handled this
		// round, whether or not the block is valid: a failed closure
		// poisons all sources connected through it.
		for _, u := range srcs {
			d.assigned[u] = true
		}
		for _, v := range buf[lo:] {
			d.inBlock[v] = false
		}
		d.srcQueue = srcs
		if ok {
			d.blocks = append(d.blocks, span{lo: lo, hi: len(buf), minNode: minNode})
		} else {
			buf = buf[:lo]
		}
	}
	d.blockNodes = buf
	for _, s := range sources {
		d.isSource[s] = false
		d.assigned[s] = false
	}
	slices.SortFunc(d.blocks, func(a, b span) int { return a.minNode - b.minNode })
	return len(d.blocks) > 0
}

// minimalClosure returns the general round's component: the smallest
// closure C(s) over the current sources, ties broken by the smallest
// source it holds. The result is scratch, valid until the next call.
//
// C(s) is everything reachable from s under one rule: from any x, go
// to x's alive parents, and also to its alive children when x is a
// source of the remnant (the paper's BFS-like closure, with S the
// sources reached and T the rest). If a source s' lies in C(s), then
// C(s') is contained in C(s). So the round condenses that relation into
// strongly connected components (iterative Tarjan, from every source)
// and keeps the source-holding components that reach no other
// source-holding component. Their closures are the containment-minimal
// ones and are pairwise disjoint: a node in two of them would have a
// source ancestor in both, and each holds no source but its own. Every
// other closure contains one of them, so the smallest closure is among
// them, and materialising them all costs one pass over the region the
// sources reach.
func (d *decomposer) minimalClosure(sources []int) []int {
	s := &d.scc
	if s.num == nil {
		n := d.g.NumNodes()
		buf := make([]int32, 3*n)
		s.num, s.low, s.comp = buf[:n], buf[n:2*n], buf[2*n:]
		for i := range buf {
			buf[i] = -1
		}
		s.blocked = make([]bool, n)
	}
	s.visited, s.stack, s.frames = s.visited[:0], s.stack[:0], s.frames[:0]
	s.feeds, s.minimal = s.feeds[:0], s.minimal[:0]
	for _, src := range sources {
		if s.num[src] == -1 {
			d.strongConnect(int32(src))
		}
	}

	buf, lo, hi, bestSrc := s.closures[:0], 0, 0, int32(-1)
	for _, src := range s.minimal {
		start := len(buf)
		buf = d.reach(src, buf)
		if size := len(buf) - start; bestSrc == -1 || size < hi-lo || size == hi-lo && src < bestSrc {
			lo, hi, bestSrc = start, len(buf), src
		}
	}
	for _, v := range buf {
		d.inBlock[v] = false
	}
	for _, v := range s.visited {
		s.num[v], s.low[v], s.comp[v], s.blocked[v] = -1, -1, -1, false
	}
	s.closures = buf
	return buf[lo:hi]
}

// successor returns x's k-th successor under the closure rule, dead
// ones included: its parents, then, when x is a source of the remnant,
// its children. It reports false past the last one.
func (d *decomposer) successor(x int32, k int32) (int32, bool) {
	ps := d.g.Parents(int(x))
	if int(k) < len(ps) {
		return ps[k], true
	}
	if d.inAlive[x] == 0 {
		if cs := d.g.Children(int(x)); int(k)-len(ps) < len(cs) {
			return cs[int(k)-len(ps)], true
		}
	}
	return 0, false
}

// strongConnect runs Tarjan's algorithm from root over the closure
// relation, without recursion. Each finished component records in
// feeds whether it holds a source or reaches one that does; a
// component that holds a source and reaches no other is minimal, and
// its smallest source joins s.minimal.
func (d *decomposer) strongConnect(root int32) {
	s := &d.scc
	push := func(x int32) {
		s.num[x] = int32(len(s.visited))
		s.low[x] = s.num[x]
		s.visited = append(s.visited, x)
		s.stack = append(s.stack, x)
		s.frames = append(s.frames, frame{x: x})
	}
	push(root)
	for len(s.frames) > 0 {
		f := &s.frames[len(s.frames)-1]
		x := f.x
		y, ok := d.successor(x, f.next)
		if ok {
			f.next++
			switch {
			case !d.alive[y]:
			case s.num[y] == -1:
				push(y)
			case s.comp[y] == -1:
				s.low[x] = min(s.low[x], s.num[y])
			case s.feeds[s.comp[y]]:
				s.blocked[x] = true
			}
			continue
		}
		s.frames = s.frames[:len(s.frames)-1]
		if s.low[x] == s.num[x] {
			c := int32(len(s.feeds))
			src, blocked := int32(-1), false
			for {
				v := s.stack[len(s.stack)-1]
				s.stack = s.stack[:len(s.stack)-1]
				s.comp[v] = c
				if d.inAlive[v] == 0 && (src == -1 || v < src) {
					src = v
				}
				blocked = blocked || s.blocked[v]
				if v == x {
					break
				}
			}
			s.feeds = append(s.feeds, src != -1 || blocked)
			if src != -1 && !blocked {
				s.minimal = append(s.minimal, src)
			}
		}
		if len(s.frames) > 0 {
			p := s.frames[len(s.frames)-1].x
			if s.comp[x] == -1 {
				s.low[p] = min(s.low[p], s.low[x])
			} else if s.feeds[s.comp[x]] {
				s.blocked[p] = true
			}
		}
	}
}

// reach appends to buf, marking them in inBlock, the nodes reachable
// from r under the closure rule that inBlock does not mark yet.
func (d *decomposer) reach(r int32, buf []int) []int {
	lo := len(buf)
	d.inBlock[r] = true
	buf = append(buf, int(r))
	for i := lo; i < len(buf); i++ {
		x := buf[i]
		buf = d.appendUnmarked(buf, d.g.Parents(x))
		if d.inAlive[x] == 0 {
			buf = d.appendUnmarked(buf, d.g.Children(x))
		}
	}
	return buf
}

// appendUnmarked marks and appends to buf the alive nodes of vs that
// inBlock does not mark yet.
func (d *decomposer) appendUnmarked(buf []int, vs []int32) []int {
	for _, y := range vs {
		if d.alive[y] && !d.inBlock[y] {
			d.inBlock[y] = true
			buf = append(buf, int(y))
		}
	}
	return buf
}

// isBipartiteSet reports whether the node set forms a two-level dag in
// the remnant (every alive arc inside runs source -> sink).
func (d *decomposer) isBipartiteSet(nodes []int) bool {
	for _, v := range nodes {
		d.inBlock[v] = true
	}
	defer func() {
		for _, v := range nodes {
			d.inBlock[v] = false
		}
	}()
	for _, v := range nodes {
		hasChildIn := false
		for _, c := range d.g.Children(v) {
			if d.alive[c] && d.inBlock[c] {
				hasChildIn = true
				break
			}
		}
		if !hasChildIn {
			continue
		}
		if d.inAlive[v] != 0 {
			return false // interior node: has alive parents and a child inside
		}
	}
	return true
}

// detach finalizes a block as a component: records its membership,
// counts its induced arcs (those whose both endpoints are alive
// members), and removes the component's non-sinks plus those
// of its sinks that are sinks of the whole dag. The order of nodes does
// not matter: cutWindows lists members by index.
func (d *decomposer) detach(nodes []int, bipartite, fastPath bool) {
	index := int32(len(d.kinds))
	for _, v := range nodes {
		if prev := d.owner[v]; prev != -1 && prev != index {
			if d.first[v] != -1 {
				panic(fmt.Sprintf("decompose: node %d in a third component", v))
			}
			d.first[v] = prev
			d.shared++
		}
		d.owner[v] = index
	}

	// Out-degrees inside the component, all taken before any removal.
	for _, v := range nodes {
		d.inBlock[v] = true
	}
	for _, v := range nodes {
		var deg int32
		for _, c := range d.g.Children(v) {
			if d.alive[c] && d.inBlock[c] {
				deg++
			}
		}
		d.mark[v] = deg
		d.arcs += int(deg)
	}
	for _, v := range nodes {
		d.inBlock[v] = false
	}

	// Classify each node within the component and remove what detaches.
	for _, v := range nodes {
		if d.mark[v] > 0 {
			d.result.ScheduledIn[v] = int(index)
			d.remove(v)
		} else if d.outAlive[v] == 0 {
			// Sink of the component and of the whole dag: deferred to
			// the final all-sinks phase, removed from the remnant now.
			d.remove(v)
		}
		d.mark[v] = -1
	}
	d.kinds = append(d.kinds, kind{bipartite: bipartite, fastPath: fastPath})
}

func (d *decomposer) remove(v int) {
	if !d.alive[v] {
		panic(fmt.Sprintf("decompose: double removal of node %d", v))
	}
	d.alive[v] = false
	d.aliveCount--
	for _, c := range d.g.Children(v) {
		if d.alive[c] {
			d.inAlive[c]--
		}
	}
	for _, p := range d.g.Parents(v) {
		if d.alive[p] {
			d.outAlive[p]--
		}
	}
}
