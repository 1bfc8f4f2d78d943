package decompose

import (
	"fmt"
	"sort"

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
	Components []*Component
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

// Options tunes the decomposition; the zero value is the production
// configuration.
type Options struct {
	// DisableFastPath forces the general containment-minimal search for
	// every component, as the pre-Section-3.5 implementation did. Used
	// by the ablation benchmarks.
	DisableFastPath bool
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
	reduced, shortcuts := g.TransitiveReductionCached(opts.ReduceCache)
	d := &decomposer{
		g:        reduced,
		alive:    make([]bool, reduced.NumNodes()),
		inAlive:  make([]int, reduced.NumNodes()),
		outAlive: make([]int, reduced.NumNodes()),
		owner:    make([]int, reduced.NumNodes()),
		mark:     make([]int32, reduced.NumNodes()),
		inBlock:  make([]bool, reduced.NumNodes()),
		isSource: make([]bool, reduced.NumNodes()),
		assigned: make([]bool, reduced.NumNodes()),
		result: &Result{
			Reduced:     reduced,
			Shortcuts:   shortcuts,
			ScheduledIn: make([]int, reduced.NumNodes()),
		},
		fastPath: !opts.DisableFastPath,
	}
	for v := 0; v < reduced.NumNodes(); v++ {
		d.alive[v] = true
		d.inAlive[v] = reduced.InDegree(v)
		d.outAlive[v] = reduced.OutDegree(v)
		d.owner[v] = -1
		d.mark[v] = -1
		d.result.ScheduledIn[v] = -1
	}
	d.aliveCount = reduced.NumNodes()
	d.run()
	return d.result
}

type decomposer struct {
	g          *dag.Frozen
	alive      []bool
	inAlive    []int   // number of alive parents
	outAlive   []int   // number of alive children
	owner      []int   // last component that contained the node, or -1
	mark       []int32 // scratch: local index during inducedAlive, else -1
	inBlock    []bool  // scratch: membership of the block being closed
	isSource   []bool  // scratch: current-round sources (bipartiteBlocks)
	assigned   []bool  // scratch: sources grouped this round (bipartiteBlocks)
	blockBuf   []int   // scratch: nodes of the closure being attempted
	srcsBuf    []int   // scratch: source queue of the closure being attempted
	aliveCount int
	fastPath   bool
	// The superdag's arcs in the order they are found, repeats
	// included: dag.FromArcs keeps each arc's first occurrence, which is
	// the order combineOrder sees.
	superFrom, superTo []int32
	result             *Result
}

func (d *decomposer) run() {
	for d.aliveCount > 0 {
		sources := d.currentSources()
		if len(sources) == 0 {
			panic("decompose: nonempty remnant without sources (cycle?)")
		}
		if d.fastPath {
			if blocks := d.bipartiteBlocks(sources); len(blocks) > 0 {
				for _, b := range blocks {
					d.detach(b, true, true)
				}
				continue
			}
		}
		b := d.minimalClosure(sources)
		d.detach(b, d.isBipartiteSet(b), false)
	}
	d.addDependencyArcs()
	super, err := dag.FromArcs(make([]string, len(d.result.Components)), nil, d.superFrom, d.superTo)
	if err != nil {
		panic(err) // unreachable: every arc runs from an earlier component to a later one
	}
	d.result.Super = super
}

func (d *decomposer) addSuperArc(from, to int) {
	d.superFrom = append(d.superFrom, int32(from))
	d.superTo = append(d.superTo, int32(to))
}

// addDependencyArcs completes the superdag with execution-order
// constraints that the shared-node (composition) arcs alone can miss: an
// interior non-sink of a component may have children outside it, and
// those children are executed by later components that need not share
// any node with it. For every reduced arc p -> v whose endpoints are
// scheduled in different components, the parent's component must precede
// the child's. All such arcs point from an earlier-detached component to
// a later one, so the superdag stays acyclic.
func (d *decomposer) addDependencyArcs() {
	for p := 0; p < d.g.NumNodes(); p++ {
		a := d.result.ScheduledIn[p]
		if a == -1 {
			continue
		}
		for _, v := range d.g.Children(p) {
			b := d.result.ScheduledIn[v]
			if b != -1 && b != a {
				d.addSuperArc(a, b)
			}
		}
	}
}

// currentSources returns the alive nodes with no alive parents, ascending.
func (d *decomposer) currentSources() []int {
	var out []int
	for v := 0; v < d.g.NumNodes(); v++ {
		if d.alive[v] && d.inAlive[v] == 0 {
			out = append(out, v)
		}
	}
	return out
}

// block is a component-in-progress: a set of remnant nodes. nodes is in
// discovery order; membership during construction is tracked in the
// decomposer's inBlock scratch (cleared before the block is handed on),
// so building a block costs one slice instead of a hash map.
type block struct {
	nodes   []int
	minNode int // smallest source id, for deterministic ordering
}

// bipartiteBlocks partitions (a subset of) the current sources into
// maximal connected bipartite building blocks: closures in which every
// parent of every reached sink is itself a current source. Sources whose
// closure touches an interior (non-source) parent are left for the
// general path. Isolated sources form trivial single-node blocks.
func (d *decomposer) bipartiteBlocks(sources []int) []*block {
	for _, s := range sources {
		d.isSource[s] = true
	}
	var blocks []*block
	for _, s := range sources {
		if d.assigned[s] {
			continue
		}
		// The closure grows in reusable scratch and is copied out only
		// when it succeeds, so failed attempts cost no allocations.
		buf := append(d.blockBuf[:0], s)
		srcs := append(d.srcsBuf[:0], s)
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
		for _, v := range buf {
			d.inBlock[v] = false
		}
		d.blockBuf, d.srcsBuf = buf, srcs
		if ok {
			nodes := make([]int, len(buf))
			copy(nodes, buf)
			blocks = append(blocks, &block{nodes: nodes, minNode: minNode})
		}
	}
	for _, s := range sources {
		d.isSource[s] = false
		d.assigned[s] = false
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].minNode < blocks[j].minNode })
	return blocks
}

// minimalClosure computes the closure C(s) for every current source and
// returns a containment-minimal one (smallest size, ties broken by
// smallest source id). One component per round: detaching it can expose
// new sources that change the other closures.
func (d *decomposer) minimalClosure(sources []int) *block {
	var best *block
	for _, s := range sources {
		c := d.closure(s)
		if best == nil || len(c.nodes) < len(best.nodes) ||
			(len(c.nodes) == len(best.nodes) && c.minNode < best.minNode) {
			best = c
		}
	}
	return best
}

// closure computes C(s) per the paper's BFS-like algorithm: S starts as
// {s}; children of S-jobs join T; parents of T-jobs join T; T-jobs that
// are sources of the remnant move to S; repeat to fixpoint.
func (d *decomposer) closure(s int) *block {
	b := &block{nodes: []int{s}, minNode: s}
	d.inBlock[s] = true
	srcQueue := []int{s} // S jobs whose children still need expanding
	tQueue := []int{}    // T jobs whose parents still need expanding
	for len(srcQueue) > 0 || len(tQueue) > 0 {
		if len(srcQueue) > 0 {
			u := srcQueue[len(srcQueue)-1]
			srcQueue = srcQueue[:len(srcQueue)-1]
			for _, c := range d.g.Children(u) {
				if d.alive[c] && !d.inBlock[c] {
					d.inBlock[c] = true
					b.nodes = append(b.nodes, int(c))
					tQueue = append(tQueue, int(c))
				}
			}
			continue
		}
		t := tQueue[len(tQueue)-1]
		tQueue = tQueue[:len(tQueue)-1]
		// T members that are sources of the remnant behave as S members.
		if d.inAlive[t] == 0 {
			if t < b.minNode {
				b.minNode = t
			}
			srcQueue = append(srcQueue, t)
		}
		for _, p := range d.g.Parents(t) {
			if d.alive[p] && !d.inBlock[p] {
				d.inBlock[p] = true
				b.nodes = append(b.nodes, int(p))
				tQueue = append(tQueue, int(p))
			}
		}
	}
	for _, v := range b.nodes {
		d.inBlock[v] = false
	}
	return b
}

// isBipartiteSet reports whether the node set forms a two-level dag in
// the remnant (every alive arc inside runs source -> sink).
func (d *decomposer) isBipartiteSet(b *block) bool {
	if b == nil {
		return false
	}
	for _, v := range b.nodes {
		d.inBlock[v] = true
	}
	defer func() {
		for _, v := range b.nodes {
			d.inBlock[v] = false
		}
	}()
	for _, v := range b.nodes {
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

// detach finalizes a block as a component: builds the induced subgraph,
// records superdag arcs from prior owners, and removes the component's
// non-sinks plus those of its sinks that are sinks of the whole dag.
func (d *decomposer) detach(b *block, bipartite, fastPath bool) {
	// The block is dead after detachment, so its node list is sorted in
	// place and adopted as the component's, with no copy.
	nodes := b.nodes
	sort.Ints(nodes)

	sub, orig := d.inducedAlive(nodes)
	comp := &Component{
		Index:     len(d.result.Components),
		Nodes:     nodes,
		Sub:       sub,
		Orig:      orig,
		Bipartite: bipartite,
		FastPath:  fastPath,
	}
	for _, v := range nodes {
		if prev := d.owner[v]; prev != -1 && prev != comp.Index {
			d.addSuperArc(prev, comp.Index)
		}
		d.owner[v] = comp.Index
	}

	// Classify each node within the component and remove what detaches.
	for i, v := range orig {
		if sub.OutDegree(i) > 0 {
			comp.NonSinkCount++
			d.result.ScheduledIn[v] = comp.Index
			d.remove(v)
		} else if d.outAlive[v] == 0 {
			// Sink of the component and of the whole dag: deferred to
			// the final all-sinks phase, removed from the remnant now.
			d.remove(v)
		}
	}
	d.result.Components = append(d.result.Components, comp)
}

// inducedAlive builds the subgraph induced by nodes, keeping only arcs
// whose both endpoints are alive members of the set. The subgraph is
// assembled directly in CSR form — names are shared with the reduced
// dag and the only per-component allocations are the frozen arrays
// themselves (the membership scratch is reused across components).
func (d *decomposer) inducedAlive(nodes []int) (*dag.Frozen, []int) {
	n := len(nodes)
	for i, v := range nodes {
		d.mark[v] = int32(i)
	}
	names := make([]string, n)
	var m int32
	for _, v := range nodes {
		for _, c := range d.g.Children(v) {
			if d.alive[c] && d.mark[c] >= 0 {
				m++
			}
		}
	}
	// childStart and the arena share one backing array: FromCSR takes
	// ownership of both anyway, and a single allocation per component is
	// measurably cheaper on dags that decompose into tens of thousands
	// of tiny components.
	backing := make([]int32, int32(n+1)+2*m)
	childStart, arena := backing[:n+1], backing[n+1:]
	m = 0
	for i, v := range nodes {
		names[i] = d.g.Name(v)
		for _, c := range d.g.Children(v) {
			if d.alive[c] && d.mark[c] >= 0 {
				m++
			}
		}
		childStart[i+1] = m
	}
	for i, v := range nodes {
		next := childStart[i]
		for _, c := range d.g.Children(v) {
			if d.alive[c] && d.mark[c] >= 0 {
				arena[next] = d.mark[c]
				next++
			}
		}
	}
	for _, v := range nodes {
		d.mark[v] = -1
	}
	sub, err := dag.FromCSR(names, childStart, arena)
	if err != nil {
		panic(err) // unreachable: an induced subgraph of a dag is a dag
	}
	return sub, nodes
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
