package decompose

import (
	"fmt"
	"slices"

	"repro/internal/dag"
)

// Component is one detached piece of the dag, in detachment order.
type Component struct {
	// Index is the component's position in detachment order.
	Index int
	// Nodes holds the original node ids of every job in the component,
	// ascending. A job can appear in two components: as a sink of an
	// earlier one and again in a later one (where it is eventually
	// executed or deferred as a dag sink).
	Nodes []int
	// Sub is the subgraph induced by Nodes on the shortcut-free dag;
	// Orig maps Sub's node indices back to original ids.
	Sub  *dag.Frozen
	Orig []int
	// NonSinkCount is the number of jobs of Sub that have children
	// within Sub — the jobs that the component's schedule executes.
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
}

// Result is the outcome of decomposition.
type Result struct {
	// Reduced is the input dag with all shortcut arcs removed (Step 1);
	// Shortcuts lists the removed arcs.
	Reduced   *dag.Frozen
	Shortcuts []dag.Arc
	// Components lists the detached components in detachment order.
	// Their Nodes, Orig and Sub are windows over storage shared by the
	// whole Result.
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
	return newDecomposer(g, opts, true).run()
}

// newDecomposer reduces g (Step 1) and readies the peeling loop over
// the reduced dag. fastPath false forces the general containment-minimal
// search for every component, the pre-Section-3.5 design that the tests
// and BenchmarkAblationFastPath keep as the oracle for the fast path.
func newDecomposer(g *dag.Frozen, opts Options, fastPath bool) *decomposer {
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
		fastPath: fastPath,
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
	closeBuf   []int   // scratch: nodes of the closure being computed
	bestBuf    []int   // scratch: nodes of the smallest closure so far
	srcQueue   []int   // scratch: source queue of the closure being computed
	tQueue     []int   // scratch: T queue of the closure being computed
	aliveCount int
	fastPath   bool
	result     *Result
}

// kind is what a component's record in Result says about how it was
// detached; cutWindows writes the records once their number is known.
type kind struct{ bipartite, fastPath bool }

// span is one fast-path block: blockNodes[lo:hi], grown from source
// minNode, its smallest member source.
type span struct{ lo, hi, minNode int }

// run peels the remnant into components (Step 2), then cuts the
// component windows and builds the superdag.
func (d *decomposer) run() *Result {
	for d.aliveCount > 0 {
		sources := d.currentSources()
		if len(sources) == 0 {
			panic("decompose: nonempty remnant without sources (cycle?)")
		}
		if d.fastPath && d.bipartiteBlocks(sources) {
			for _, b := range d.blocks {
				d.detach(d.blockNodes[b.lo:b.hi], true, true)
			}
			continue
		}
		nodes := d.minimalClosure(sources)
		d.detach(nodes, d.isBipartiteSet(nodes), false)
	}
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
// Result and points its Nodes, Orig and Sub there: one member array,
// one name table, one induced-subgraph CSR, and one batch of frozen
// subgraph headers, with no allocation per component. Walking jobs in
// index order leaves each component's members ascending. A component's
// arcs are the reduced arcs from the jobs it schedules to its other
// members: exactly the arcs whose both endpoints were alive members
// when it was detached.
func (d *decomposer) cutWindows() {
	k := len(d.kinds)
	comps := make([]Component, k)
	for i, kd := range d.kinds {
		comps[i] = Component{Index: i, Bipartite: kd.bipartite, FastPath: kd.fastPath}
	}
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

	names := make([]string, len(members))
	childStart := make([]int32, len(members)+k)
	arena := make([]int32, 2*d.arcs)
	a := 0
	for i := range comps {
		nodes := members[bounds[i]:bounds[i+1]]
		for j, v := range nodes {
			d.mark[v] = int32(j)
			names[bounds[i]+j] = d.g.Name(v)
		}
		cs := childStart[bounds[i]+i : bounds[i+1]+i+1]
		base := a
		for j, u := range nodes {
			if d.result.ScheduledIn[u] == i {
				for _, c := range d.g.Children(u) {
					if d.mark[c] >= 0 {
						arena[a] = d.mark[c]
						a++
					}
				}
			}
			cs[j+1] = int32(a - base)
		}
		a += a - base // the parents half, which FreezeBatch derives
		for _, v := range nodes {
			d.mark[v] = -1
		}
	}
	subs, err := dag.FreezeBatch(names, bounds, childStart, arena)
	if err != nil {
		panic(err) // unreachable: an induced subgraph of a dag is a dag
	}
	for i := range comps {
		lo, hi := bounds[i], bounds[i+1]
		comps[i].Nodes = members[lo:hi:hi]
		comps[i].Orig = comps[i].Nodes
		comps[i].Sub = &subs[i]
	}
	d.result.Components = comps
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
		for _, v := range d.result.Components[i].Nodes {
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

// minimalClosure computes the closure C(s) for every current source and
// returns a containment-minimal one (smallest size, ties broken by
// smallest source id). One component per round: detaching it can expose
// new sources that change the other closures. The result is scratch,
// valid until the next call.
func (d *decomposer) minimalClosure(sources []int) []int {
	best, bestMin := d.bestBuf[:0], -1
	for _, s := range sources {
		c, minNode := d.closure(s, d.closeBuf[:0])
		if bestMin == -1 || len(c) < len(best) || (len(c) == len(best) && minNode < bestMin) {
			best, c, bestMin = c, best, minNode
		}
		d.closeBuf = c
	}
	d.bestBuf = best
	return best
}

// closure computes C(s) per the paper's BFS-like algorithm, appending
// its nodes to buf: S starts as {s}; children of S-jobs join T; parents
// of T-jobs join T; T-jobs that are sources of the remnant move to S;
// repeat to fixpoint. It also returns the smallest source in C(s).
func (d *decomposer) closure(s int, buf []int) ([]int, int) {
	nodes, minNode := append(buf, s), s
	d.inBlock[s] = true
	srcQueue := append(d.srcQueue[:0], s) // S jobs whose children still need expanding
	tQueue := d.tQueue[:0]                // T jobs whose parents still need expanding
	for len(srcQueue) > 0 || len(tQueue) > 0 {
		if len(srcQueue) > 0 {
			u := srcQueue[len(srcQueue)-1]
			srcQueue = srcQueue[:len(srcQueue)-1]
			for _, c := range d.g.Children(u) {
				if d.alive[c] && !d.inBlock[c] {
					d.inBlock[c] = true
					nodes = append(nodes, int(c))
					tQueue = append(tQueue, int(c))
				}
			}
			continue
		}
		t := tQueue[len(tQueue)-1]
		tQueue = tQueue[:len(tQueue)-1]
		// T members that are sources of the remnant behave as S members.
		if d.inAlive[t] == 0 {
			if t < minNode {
				minNode = t
			}
			srcQueue = append(srcQueue, t)
		}
		for _, p := range d.g.Parents(t) {
			if d.alive[p] && !d.inBlock[p] {
				d.inBlock[p] = true
				nodes = append(nodes, int(p))
				tQueue = append(tQueue, int(p))
			}
		}
	}
	for _, v := range nodes {
		d.inBlock[v] = false
	}
	d.srcQueue, d.tQueue = srcQueue, tQueue
	return nodes, minNode
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
