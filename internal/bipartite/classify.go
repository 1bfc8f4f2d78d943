package bipartite

import (
	"sort"

	"repro/internal/dag"
)

// Classification describes a recognized building block: its family, the
// family parameters, and an explicit IC-optimal order in which to execute
// its sources (Fig. 2: "execute sources from left to right, then all
// sinks in arbitrary order").
type Classification struct {
	Family Family
	// S, T are the family parameters: (s,t) for W/M, (a,b) for Clique
	// (S sources, T sinks), and S = T = n for N/Cycle.
	S, T int
	// SourceOrder lists every source (node index in the classified
	// graph) in IC-optimal execution order.
	SourceOrder []int
}

// Classify attempts to recognize g as one of the Fig. 2 families. g must
// be a connected bipartite dag; ok is false when g is not, or when it
// belongs to no recognized family (Step 3 then falls back to the
// outdegree heuristic).
func Classify(g *dag.Frozen) (Classification, bool) {
	var sc Scratch
	return sc.Classify(g, nil)
}

// Scratch is Classify's reusable working storage. The Recurse phase
// classifies tens of thousands of small components per dag, and one
// Scratch per worker keeps that from allocating per component. The
// zero value is ready to use; a Scratch must not be shared between
// goroutines.
type Scratch struct {
	sinks  []int32
	stack  []int32
	marks  []bool
	links  [][2]int32 // links[u][:min(nlinks[u], 2)]: sources sharing a sink with u
	nlinks []int32
	path   []int // classifyM: the reversal's W order
	ps     []int // classifyM: one sink's parents
}

// Classify is the package-level Classify on sc's storage. The source
// order is appended to order[:0], so SourceOrder shares order's backing
// array when it has the room.
func (sc *Scratch) Classify(g *dag.Frozen, order []int) (Classification, bool) {
	if !g.IsBipartiteDag() || !sc.connected(g) {
		return Classification{}, false
	}
	sources := g.Sources()
	sc.sinks = appendSinks(sc.sinks[:0], g)
	sinks := sc.sinks
	nU, nV := len(sources), len(sinks)

	// Complete bipartite dag. This also catches the degenerate stars
	// K(1,t) and K(t,1), which Fig. 2 labels (1,t)-W and (1,t)-M.
	if g.NumArcs() == nU*nV {
		c := Classification{Family: CliqueDag, S: nU, T: nV, SourceOrder: appendInts(order[:0], sources)}
		if nU == 1 {
			c.Family, c.S, c.T = WDag, 1, nV
		} else if nV == 1 {
			c.Family, c.S, c.T = MDag, 1, nU
		}
		return c, true
	}

	if c, ok := sc.classifyW(g, sources, sinks, order); ok {
		return c, true
	}
	if c, ok := sc.classifyM(g, sources, sinks, order); ok {
		return c, true
	}
	if c, ok := sc.classifyN(g, sources, sinks, order); ok {
		return c, true
	}
	if c, ok := sc.classifyCycle(g, sources, sinks, order); ok {
		return c, true
	}
	return Classification{}, false
}

// connected reports whether g (with at least one node) is connected
// when arc directions are ignored.
func (sc *Scratch) connected(g *dag.Frozen) bool {
	seen := sc.clearedMarks(g.NumNodes())
	stack := append(sc.stack[:0], 0)
	seen[0] = true
	reached := 1
	for len(stack) > 0 {
		u := int(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
		for _, nbrs := range [2][]int32{g.Children(u), g.Parents(u)} {
			for _, w := range nbrs {
				if !seen[w] {
					seen[w] = true
					reached++
					stack = append(stack, w)
				}
			}
		}
	}
	sc.stack = stack
	return reached == g.NumNodes()
}

// clearedMarks returns n false flags.
func (sc *Scratch) clearedMarks(n int) []bool {
	if cap(sc.marks) < n {
		sc.marks = make([]bool, n)
	}
	sc.marks = sc.marks[:n]
	clear(sc.marks)
	return sc.marks
}

// clearLinks empties the link lists of nodes [0, n).
func (sc *Scratch) clearLinks(n int) {
	if cap(sc.nlinks) < n {
		sc.links, sc.nlinks = make([][2]int32, n), make([]int32, n)
	}
	sc.links, sc.nlinks = sc.links[:n], sc.nlinks[:n]
	clear(sc.nlinks)
}

// link records b as a neighbour of a. Only the first two neighbours are
// kept: a node with more fails every caller's degree check.
func (sc *Scratch) link(a, b int32) {
	if k := sc.nlinks[a]; k < 2 {
		sc.links[a][k] = b
	}
	sc.nlinks[a]++
}

// classifyW recognizes (s,t)-W-dags with s >= 2 (s == 1 is caught by the
// clique case): every source has exactly t children, every sink has one
// or two parents, the two-parent sinks link consecutive sources into a
// simple path, and there are s(t-1)+1 sinks in total.
func (sc *Scratch) classifyW(g *dag.Frozen, sources, sinks []int32, order []int) (Classification, bool) {
	s := len(sources)
	if s < 2 {
		return Classification{}, false
	}
	t := g.OutDegree(int(sources[0]))
	if t < 2 {
		return Classification{}, false
	}
	for _, u := range sources {
		if g.OutDegree(int(u)) != t {
			return Classification{}, false
		}
	}
	if len(sinks) != s*(t-1)+1 {
		return Classification{}, false
	}
	// Shared sinks define links between sources.
	sc.clearLinks(g.NumNodes())
	shared := 0
	for _, v := range sinks {
		switch g.InDegree(int(v)) {
		case 1:
		case 2:
			p := g.Parents(int(v))
			sc.link(p[0], p[1])
			sc.link(p[1], p[0])
			shared++
		default:
			return Classification{}, false
		}
	}
	if shared != s-1 {
		return Classification{}, false
	}
	order, ok := sc.walkPath(g.NumNodes(), sources, order)
	if !ok {
		return Classification{}, false
	}
	return Classification{Family: WDag, S: s, T: t, SourceOrder: order}, true
}

// classifyM recognizes (s,t)-M-dags by classifying the arc-reversal as a
// W-dag and replaying its sink order as a grouped source order: for each
// sink along the path, execute its not-yet-executed parents, so sinks
// become eligible one by one — the M-dag's IC-optimal schedule.
func (sc *Scratch) classifyM(g *dag.Frozen, sources, sinks []int32, order []int) (Classification, bool) {
	rev := g.Reverse()
	// In rev, sources and sinks swap roles.
	c, ok := sc.classifyW(rev, sinks, sources, sc.path)
	if !ok {
		return Classification{}, false
	}
	sc.path = c.SourceOrder
	order = order[:0]
	done := sc.clearedMarks(g.NumNodes())
	for _, v := range c.SourceOrder { // sinks of g in path order
		sc.ps = appendInts(sc.ps[:0], g.Parents(v))
		sort.Ints(sc.ps)
		for _, u := range sc.ps {
			if !done[u] {
				done[u] = true
				order = append(order, u)
			}
		}
	}
	return Classification{Family: MDag, S: c.S, T: c.T, SourceOrder: order}, true
}

// classifyN recognizes n-N-dags (n >= 2): n sources and n sinks, exactly
// one source of out-degree 1 and one sink of in-degree 1, all other
// degrees 2, forming one alternating path. The IC-optimal order starts at
// the source whose child has in-degree 1 and walks the path, rendering
// one new sink eligible per executed source.
func (sc *Scratch) classifyN(g *dag.Frozen, sources, sinks []int32, order []int) (Classification, bool) {
	n := len(sources)
	if n < 2 || len(sinks) != n {
		return Classification{}, false
	}
	if g.NumArcs() != 2*n-1 {
		return Classification{}, false
	}
	deg1Sinks := 0
	for _, v := range sinks {
		switch g.InDegree(int(v)) {
		case 1:
			deg1Sinks++
		case 2:
		default:
			return Classification{}, false
		}
	}
	deg1Sources := 0
	var start int
	for _, u := range sources {
		switch g.OutDegree(int(u)) {
		case 1:
			deg1Sources++
		case 2:
		default:
			return Classification{}, false
		}
	}
	if deg1Sinks != 1 || deg1Sources != 1 {
		return Classification{}, false
	}
	// Find the start: the (unique) source that is parent of the
	// in-degree-1 sink and has out-degree 2 (for n >= 2 the degree-1
	// sink's parent must start the path).
	start = -1
	for _, v := range sinks {
		if g.InDegree(int(v)) == 1 {
			start = int(g.Parents(int(v))[0])
		}
	}
	if start == -1 {
		return Classification{}, false
	}
	// Walk: from source u, its "forward" child is the one we have not
	// yet consumed; from that sink, the forward parent likewise.
	order = order[:0]
	// Sources and sinks are distinct nodes, so one set of flags serves
	// for both.
	seenSrc := sc.clearedMarks(g.NumNodes())
	seenSink := seenSrc
	u := start
	for {
		if seenSrc[u] {
			return Classification{}, false
		}
		seenSrc[u] = true
		order = append(order, u)
		// forward sink: child not yet seen with in-degree 2; terminal
		// sources (out-degree 1) end the walk after consuming their child.
		next := -1
		for _, vv := range g.Children(u) {
			v := int(vv)
			if !seenSink[v] {
				if next != -1 {
					// Two unseen children: pick the shared one (indeg 2)
					// to continue; the other must be the start sink —
					// only possible at the path start, already handled
					// by choosing start via the indeg-1 sink.
					if g.InDegree(v) == 2 && g.InDegree(next) == 2 {
						return Classification{}, false
					}
					if g.InDegree(v) == 2 {
						next = v
					}
					continue
				}
				next = v
			}
		}
		if next == -1 {
			break
		}
		seenSink[next] = true
		if g.InDegree(next) == 1 {
			continue // private sink; stay on u? cannot happen mid-path
		}
		// move to the other parent of the shared sink
		p := g.Parents(next)
		if int(p[0]) == u {
			u = int(p[1])
		} else {
			u = int(p[0])
		}
	}
	if len(order) != n {
		return Classification{}, false
	}
	return Classification{Family: NDag, S: n, T: n, SourceOrder: order}, true
}

// classifyCycle recognizes n-Cycle-dags (n >= 3): every degree is exactly
// 2 and the shared-sink links close the sources into a single cycle. Any
// rotation/direction of the cycle is IC-optimal; we start at the smallest
// source index for determinism.
func (sc *Scratch) classifyCycle(g *dag.Frozen, sources, sinks []int32, order []int) (Classification, bool) {
	n := len(sources)
	if n < 3 || len(sinks) != n || g.NumArcs() != 2*n {
		return Classification{}, false
	}
	for _, u := range sources {
		if g.OutDegree(int(u)) != 2 {
			return Classification{}, false
		}
	}
	sc.clearLinks(g.NumNodes())
	for _, v := range sinks {
		if g.InDegree(int(v)) != 2 {
			return Classification{}, false
		}
		p := g.Parents(int(v))
		if p[0] == p[1] {
			return Classification{}, false
		}
		sc.link(p[0], p[1])
		sc.link(p[1], p[0])
	}
	for _, u := range sources {
		if sc.nlinks[u] != 2 {
			return Classification{}, false
		}
	}
	start := int(sources[0])
	order = order[:0]
	seen := sc.clearedMarks(g.NumNodes())
	u, prev := start, -1
	for {
		order = append(order, u)
		seen[u] = true
		nb := sc.links[u]
		next := int(nb[0])
		if next == prev {
			next = int(nb[1])
		}
		if next == start {
			break
		}
		if seen[next] {
			return Classification{}, false
		}
		prev, u = u, next
	}
	if len(order) != n {
		return Classification{}, false
	}
	return Classification{Family: CycleDag, S: n, T: n, SourceOrder: order}, true
}

// walkPath orders nodes along the simple path defined by the links
// (adjacency between sources via shared sinks) of a graph with n nodes,
// appending to order[:0]; ok is false when the link structure is not a
// single simple path over all nodes.
func (sc *Scratch) walkPath(n int, nodes []int32, order []int) ([]int, bool) {
	ends, nEnds := [2]int{}, 0
	for _, u := range nodes {
		switch sc.nlinks[u] {
		case 1:
			if nEnds < 2 {
				ends[nEnds] = int(u)
			}
			nEnds++
		case 2:
		default:
			return nil, false
		}
	}
	if nEnds != 2 {
		return nil, false
	}
	// Deterministic: start from the smaller-indexed end.
	start := min(ends[0], ends[1])
	order = order[:0]
	seen := sc.clearedMarks(n)
	u, prev := start, -1
	for {
		if seen[u] {
			return nil, false
		}
		seen[u] = true
		order = append(order, u)
		next := -1
		for _, w := range sc.links[u][:sc.nlinks[u]] {
			if int(w) != prev {
				next = int(w)
			}
		}
		if next == -1 {
			break
		}
		prev, u = u, next
	}
	if len(order) != len(nodes) {
		return nil, false
	}
	return order, true
}

// appendSinks appends g's nodes with no children, in index order.
func appendSinks(dst []int32, g *dag.Frozen) []int32 {
	for v := 0; v < g.NumNodes(); v++ {
		if g.IsSink(v) {
			dst = append(dst, int32(v))
		}
	}
	return dst
}

// appendInts appends an int32 node list to dst as ints.
func appendInts(dst []int, xs []int32) []int {
	for _, x := range xs {
		dst = append(dst, int(x))
	}
	return dst
}
