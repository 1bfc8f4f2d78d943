// Package nestedlock guards against the two lock bugs a scheduler
// that fans work out across goroutines can deadlock on: acquiring the
// same (non-reentrant) mutex twice on one call path, and acquiring two
// mutexes in opposite orders on two different paths.
//
// The analyzer identifies locks semantically — any value whose
// Lock/RLock/Unlock/RUnlock methods resolve to package sync — and
// abstracts each by its declaration: all instances of one mutex field
// share an identity, the granularity at which the tree's
// `// guarded by mu` comments name their locks. Within each function it tracks the lexically held set: an
// Unlock releases, a deferred Unlock holds to the end of the function.
// Across functions it combines the call graph with a transitive
// may-acquire summary per function, so
//
//   - a Lock (or a call to a function that may Lock) of a mutex
//     already held is reported as a potential self-deadlock, and
//   - every observed nesting "B acquired while A held" — lexical or
//     through calls — becomes an edge A -> B in a global lock-ordering
//     graph, whose cycles are reported with the full order that each
//     direction was observed in.
//
// Helpers that follow the `...Locked` naming convention (run with the
// caller's lock held, never acquire it) satisfy the analysis
// naturally: they contain no Lock call, so they contribute nothing to
// the may-acquire summary. Calls through interfaces fan out to every
// loaded implementation, and calls through unresolved function values
// are assumed to acquire nothing — the same conservative split the
// other interprocedural analyzers document.
package nestedlock

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "nestedlock",
	Doc: "flag double-acquires of one mutex on a call path and cross-path " +
		"lock-ordering cycles, interprocedurally over the call graph",
	RunProgram: run,
}

// lockMethods classifies the sync methods: true acquires, false
// releases.
var lockMethods = map[string]bool{
	"Lock": true, "RLock": true,
	"Unlock": false, "RUnlock": false,
}

// acquire is one Lock call: the mutex identity and where.
type acquire struct {
	lock *types.Var
	pos  token.Pos
	read bool // RLock, which may legally nest with other RLocks
}

// callSite is one outgoing call made while holding locks.
type callSite struct {
	edge callgraph.Edge
	held []*types.Var // snapshot, in acquisition order
}

// funcSummary is the lexical analysis of one function body.
type funcSummary struct {
	acquires []acquire
	calls    []callSite
	doubles  []acquire // re-acquired while already held
	nestings []nesting // lexical A-held-then-B-locked pairs
}

// nesting is one observed ordering: inner locked while outer held.
type nesting struct {
	outer, inner *types.Var
	pos          token.Pos
}

type checker struct {
	pass      *analysis.ProgramPass
	summaries map[*callgraph.Node]*funcSummary
	mayAcq    map[*callgraph.Node]map[*types.Var]bool
	onStack   map[*callgraph.Node]bool
}

func run(pass *analysis.ProgramPass) error {
	c := &checker{
		pass:      pass,
		summaries: make(map[*callgraph.Node]*funcSummary),
		mayAcq:    make(map[*callgraph.Node]map[*types.Var]bool),
		onStack:   make(map[*callgraph.Node]bool),
	}

	// Ordering edges: outer lock -> inner lock, with the position of the
	// first observation of each direction.
	type orderEdge struct {
		from, to *types.Var
	}
	firstPos := make(map[orderEdge]token.Pos)
	succs := make(map[*types.Var][]*types.Var)
	addEdge := func(from, to *types.Var, pos token.Pos) {
		if from == to {
			return // the double-acquire check owns this case
		}
		e := orderEdge{from, to}
		if _, ok := firstPos[e]; ok {
			return
		}
		firstPos[e] = pos
		succs[from] = append(succs[from], to)
	}

	for _, n := range c.pass.Graph.Nodes {
		sum := c.summarize(n)
		if sum == nil {
			continue
		}
		for _, d := range sum.doubles {
			c.pass.Reportf(d.pos, "%s locks %s, which is already held on this path (self-deadlock)",
				n.Name(), c.lockLabel(d.lock))
		}
		for _, nest := range sum.nestings {
			addEdge(nest.outer, nest.inner, nest.pos)
		}
		for _, cs := range sum.calls {
			if cs.edge.Callee == nil || cs.edge.Callee.Body == nil {
				continue
			}
			acq := c.acquiresOf(cs.edge.Callee)
			for _, held := range cs.held {
				if acq[held] {
					c.pass.Reportf(cs.edge.Pos,
						"%s calls %s while holding %s, which %s may acquire again (self-deadlock)",
						n.Name(), cs.edge.Callee.Name(), c.lockLabel(held), cs.edge.Callee.Name())
				}
				for inner := range acq {
					if inner != held {
						addEdge(held, inner, cs.edge.Pos)
					}
				}
			}
		}
	}

	// Cycle detection over the ordering graph. Locks are visited in
	// label order and successor lists are sorted, so reports are
	// deterministic; each cycle is reported once, from its
	// lexicographically-smallest lock.
	var locks []*types.Var
	seen := make(map[*types.Var]bool)
	for e := range firstPos {
		if !seen[e.from] {
			seen[e.from] = true
			locks = append(locks, e.from)
		}
		if !seen[e.to] {
			seen[e.to] = true
			locks = append(locks, e.to)
		}
	}
	sort.Slice(locks, func(i, j int) bool { return c.lockLabel(locks[i]) < c.lockLabel(locks[j]) })
	for _, l := range locks {
		sort.Slice(succs[l], func(i, j int) bool {
			return c.lockLabel(succs[l][i]) < c.lockLabel(succs[l][j])
		})
	}
	for _, start := range locks {
		path := []*types.Var{start}
		var dfs func(cur *types.Var) bool
		visited := make(map[*types.Var]bool)
		dfs = func(cur *types.Var) bool {
			for _, next := range succs[cur] {
				if next == start && len(path) > 1 {
					labels := make([]string, 0, len(path)+1)
					smallest := true
					for _, l := range path {
						if c.lockLabel(l) < c.lockLabel(start) {
							smallest = false
						}
						labels = append(labels, c.lockLabel(l))
					}
					if !smallest {
						continue // reported from the smaller lock
					}
					labels = append(labels, c.lockLabel(start))
					c.pass.Reportf(firstPos[orderEdge{start, path[1]}],
						"lock ordering cycle: %s (each direction is observed on some path; opposite orders can deadlock)",
						joinArrows(labels))
					return true
				}
				if visited[next] || next == start {
					continue
				}
				visited[next] = true
				path = append(path, next)
				if dfs(next) {
					return true
				}
				path = path[:len(path)-1]
			}
			return false
		}
		dfs(start)
	}
	return nil
}

func joinArrows(labels []string) string {
	out := ""
	for i, l := range labels {
		if i > 0 {
			out += " → "
		}
		out += l
	}
	return out
}

// lockLabel names a lock for diagnostics, disambiguated by its
// declaration position: "mu (kernel.go:12)".
func (c *checker) lockLabel(v *types.Var) string {
	p := c.pass.Fset.Position(v.Pos())
	return fmt.Sprintf("%s (%s:%d)", v.Name(), filepath.Base(p.Filename), p.Line)
}

// acquiresOf returns the set of locks node may transitively acquire.
// Back-edges in recursive call chains contribute the (possibly still
// partial) in-progress summary, the standard under-approximation that
// converges for the acyclic bulk of the graph.
func (c *checker) acquiresOf(n *callgraph.Node) map[*types.Var]bool {
	if acq, ok := c.mayAcq[n]; ok {
		return acq
	}
	if c.onStack[n] {
		return nil
	}
	c.onStack[n] = true
	defer func() { c.onStack[n] = false }()
	acq := make(map[*types.Var]bool)
	if sum := c.summarize(n); sum != nil {
		for _, a := range sum.acquires {
			acq[a.lock] = true
		}
		for _, cs := range sum.calls {
			if cs.edge.Callee == nil || cs.edge.Callee.Body == nil {
				continue
			}
			for l := range c.acquiresOf(cs.edge.Callee) {
				acq[l] = true
			}
		}
	}
	c.mayAcq[n] = acq
	return acq
}

// summarize runs the lexical held-set analysis over one body. The held
// set flows forward through the statement list; branches share it
// conservatively (an acquire inside a branch stays held after it, so a
// conditional Lock without Unlock is still seen by later code).
func (c *checker) summarize(n *callgraph.Node) *funcSummary {
	if sum, ok := c.summaries[n]; ok {
		return sum
	}
	if n.Body == nil || n.Pkg == nil {
		c.summaries[n] = nil
		return nil
	}
	sum := &funcSummary{}
	c.summaries[n] = sum

	// Map call positions to this node's outgoing edges so the walk can
	// snapshot the held set per call site.
	edgesAt := make(map[token.Pos][]callgraph.Edge)
	for _, e := range n.Out {
		if e.Site != nil {
			edgesAt[e.Site.Lparen] = append(edgesAt[e.Site.Lparen], e)
		}
	}

	var held []*types.Var
	heldRead := make(map[*types.Var]bool)
	heldSet := func(v *types.Var) bool {
		for _, h := range held {
			if h == v {
				return true
			}
		}
		return false
	}

	ast.Inspect(n.Body, func(nd ast.Node) bool {
		switch nd := nd.(type) {
		case *ast.FuncLit:
			return false // its body is its own node, analyzed separately
		case *ast.DeferStmt:
			// A deferred Unlock holds to the end of the function: do not
			// descend, so the Unlock is never processed as a release.
			// (A deferred Lock is pathological; ignored the same way.)
			return false
		case *ast.CallExpr:
			if lock, name, ok := c.syncMethod(n.Pkg.Info, nd); ok {
				if lockMethods[name] {
					read := name == "RLock"
					if heldSet(lock) && !(read && heldRead[lock]) {
						sum.doubles = append(sum.doubles, acquire{lock, nd.Lparen, read})
					} else {
						for _, outer := range held {
							sum.nestings = append(sum.nestings, nesting{outer, lock, nd.Lparen})
						}
						held = append(held, lock)
						heldRead[lock] = read
					}
					sum.acquires = append(sum.acquires, acquire{lock, nd.Lparen, read})
				} else {
					for i, h := range held {
						if h == lock {
							held = append(held[:i], held[i+1:]...)
							delete(heldRead, lock)
							break
						}
					}
				}
				return true
			}
			for _, e := range edgesAt[nd.Lparen] {
				sum.calls = append(sum.calls, callSite{edge: e, held: append([]*types.Var(nil), held...)})
			}
		}
		return true
	})

	// Implicit closure edges (Site == nil) still count as calls — with
	// an empty held set, since the literal may run later.
	for _, e := range n.Out {
		if e.Site == nil {
			sum.calls = append(sum.calls, callSite{edge: e})
		}
	}
	return sum
}

// syncMethod matches a call of a sync.Mutex/RWMutex method and returns
// the lock's identity: the declared variable or field the method is
// called on.
func (c *checker) syncMethod(info *types.Info, call *ast.CallExpr) (*types.Var, string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	if _, known := lockMethods[sel.Sel.Name]; !known {
		return nil, "", false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", false
	}
	var id *ast.Ident
	switch x := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		id = x
	case *ast.SelectorExpr:
		id = x.Sel
	default:
		return nil, "", false
	}
	v, ok := info.Uses[id].(*types.Var)
	if !ok {
		return nil, "", false
	}
	return v, sel.Sel.Name, true
}
