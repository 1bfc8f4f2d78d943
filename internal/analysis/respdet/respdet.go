// Package respdet proves the `//prio:deterministic` contract: the
// bytes a function writes depend only on its inputs — for the serving
// layer, /v1/prioritize response bytes are a function of the request
// bytes and the loaded workloads, nothing else. The paper's claim
// rests on the schedule being a deterministic function of the DAG;
// this analyzer keeps that property true of the running daemon, where
// the load generator and the differential tests assert bit-identical
// responses and this proof explains why they can.
//
// From every function annotated `//prio:deterministic` the analyzer
// walks the call graph (static edges, interface edges to loaded
// non-test implementations — see repro/internal/analysis/reach) and
// reports:
//
//   - clock reads: time.Now, time.Since, time.Until;
//   - process-global randomness: package-level math/rand and
//     math/rand/v2 draws (explicitly seeded *rand.Rand values and rng
//     sources threaded through configs remain fine);
//   - process/filesystem state: any call into os, os/exec, syscall, or
//     io/ioutil (this is what keeps /proc reads off the response
//     path);
//   - runtime observation: runtime.ReadMemStats, runtime.NumGoroutine;
//   - order-dependent map iteration: a range over a map whose body
//     lets iteration order escape. A range is order-free when it binds
//     no loop variables, writes only loop-local variables, appends to
//     a slice that is sorted later in the enclosing function
//     (collect-then-sort), writes another map at a key derived from
//     the loop key (unique keys — set semantics), or bumps an integer
//     accumulator (integer addition commutes; float accumulation does
//     not and is flagged).
//
// What is deliberately out of scope, and why it is sound here:
// runtime.GOMAXPROCS/NumCPU and goroutine fan-out may change the
// *parallelism* of the pipeline but not its output — the parallel
// Recurse phase merges into component-index order and the differential
// tests pin bit-identity against the sequential reference. Calls
// through unresolved function values are not traversed (the
// annotated path in this repository has none that matter; the
// differential tests backstop). sync.Pool reuse hands back scratch
// that is reset before use. The /metrics handler reads the clock,
// RSS, and goroutine counts by design and is simply not annotated —
// the exemption is the absence of the contract, documented in
// docs/OPERATIONS.md.
//
// Diagnostics anchor at the annotated declaration and carry the call
// path:
//
//	handlePrioritize is annotated //prio:deterministic but can reach
//	time.Now, which reads the clock, at metrics.go:97 (path: ...)
package respdet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/reach"
)

var Analyzer = &analysis.Analyzer{
	Name: "respdet",
	Doc: "check that //prio:deterministic functions cannot reach a clock read, " +
		"global randomness, process state, or order-dependent map iteration: " +
		"their output must be a function of their input",
	RunProgram: run,
}

// Annotation is the marker comment, exported for the driver's docs.
const Annotation = "prio:deterministic"

func run(pass *analysis.ProgramPass) error {
	for _, n := range pass.Graph.Nodes {
		if n.Decl == nil || n.InTest || !annotated(n.Decl) {
			continue
		}
		c := &checker{pass: pass, root: n, reported: make(map[token.Pos]bool)}
		reach.Walk([]*callgraph.Node{n}, c.visit)
	}
	return nil
}

func annotated(decl *ast.FuncDecl) bool {
	if decl.Doc == nil {
		return false
	}
	for _, cm := range decl.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(cm.Text, "//")) == Annotation {
			return true
		}
	}
	return false
}

type checker struct {
	pass     *analysis.ProgramPass
	root     *callgraph.Node
	reported map[token.Pos]bool
}

func (c *checker) visit(n *callgraph.Node, path []string) {
	for _, e := range n.Out {
		if e.Callee == nil || e.Callee.Body != nil {
			continue
		}
		if why, bad := bannedExternal(e.Callee.Key); bad {
			c.report(e.Pos, path, fmt.Sprintf("%s, which %s", e.Callee.Key, why))
		}
	}
	if n.Pkg == nil || n.Body == nil {
		return
	}
	info := n.Pkg.Info
	analysis.WithStack(n.Body, func(nd ast.Node, stack []ast.Node) bool {
		if _, ok := nd.(*ast.FuncLit); ok {
			return false // a literal is its own node; visited with its own path
		}
		rs, ok := nd.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := info.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		c.checkMapRange(info, n, rs, path)
		return true
	})
}

// bannedExternal classifies an external (body-less) callee key.
func bannedExternal(key string) (string, bool) {
	switch key {
	case "time.Now", "time.Since", "time.Until":
		return "reads the clock", true
	case "runtime.ReadMemStats", "runtime.NumGoroutine":
		return "observes runtime state", true
	}
	for _, prefix := range []string{"os.", "os/exec.", "syscall.", "io/ioutil."} {
		if strings.HasPrefix(key, prefix) {
			return "reads process or filesystem state", true
		}
	}
	for _, prefix := range []string{"math/rand.", "math/rand/v2."} {
		if !strings.HasPrefix(key, prefix) {
			continue
		}
		name := key[len(prefix):]
		if strings.Contains(name, "(") || strings.HasPrefix(name, "New") {
			// Methods on explicitly seeded values and the constructors
			// that seed them are replayable; rngsource polices seeding.
			return "", false
		}
		return "draws from the process-global random source", true
	}
	return "", false
}

// checkMapRange reports the range unless its body is order-free.
func (c *checker) checkMapRange(info *types.Info, n *callgraph.Node, rs *ast.RangeStmt, path []string) {
	loopVars := rangeVars(info, rs)
	if len(loopVars) == 0 {
		return // no key in scope: iterations are indistinguishable
	}
	keyObj := loopVarObj(info, rs.Key)
	bad := false
	ast.Inspect(rs.Body, func(nd ast.Node) bool {
		if bad {
			return false
		}
		switch nd := nd.(type) {
		case *ast.SendStmt, *ast.ReturnStmt:
			bad = true
		case *ast.BranchStmt:
			if nd.Tok == token.BREAK || nd.Tok == token.GOTO {
				bad = true // exits chosen by iteration order
			}
		case *ast.IncDecStmt:
			// x++ / x-- commute regardless of order.
		case *ast.AssignStmt:
			if !c.orderFreeAssign(info, nd, rs, keyObj, n.Body) {
				bad = true
			}
		case *ast.CallExpr:
			if isOutputCall(info, nd) {
				bad = true
			}
		}
		return !bad
	})
	if bad {
		c.report(rs.For, path, fmt.Sprintf("a range over map %s whose body depends on iteration order", exprString(rs.X)))
	}
}

// orderFreeAssign reports whether every left-hand side of the
// assignment is order-free: a loop-local variable, an integer
// accumulator (for compound assignments), a map entry keyed by the
// loop key, or a slice accumulator that is sorted later in the
// enclosing function.
func (c *checker) orderFreeAssign(info *types.Info, as *ast.AssignStmt, rs *ast.RangeStmt, keyObj types.Object, body *ast.BlockStmt) bool {
	for i, lhs := range as.Lhs {
		switch l := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			obj := objOf(info, l)
			if obj == nil || declaredWithin(obj, rs) {
				continue // loop-local: cannot escape the iteration
			}
			if as.Tok != token.ASSIGN && as.Tok != token.DEFINE {
				// Compound assignment: integer accumulation commutes.
				if isIntegerAccum(info, l, as.Tok) {
					continue
				}
				return false
			}
			if i < len(as.Rhs) && isAppendTo(info, as.Rhs[i], obj) && sortedAfter(info, obj, rs, body) {
				continue // collect-then-sort: the order is repaired
			}
			return false
		case *ast.IndexExpr:
			// dst[k] = v with k the loop key writes unique entries; the
			// resulting map is order-independent.
			if keyObj != nil && usesObj(info, l.Index, keyObj) {
				continue
			}
			return false
		case *ast.SelectorExpr:
			if as.Tok != token.ASSIGN && as.Tok != token.DEFINE && isIntegerAccum(info, l, as.Tok) {
				continue // s.total += e.n: integer accumulation commutes
			}
			return false
		default:
			return false
		}
	}
	return true
}

// isIntegerAccum: a += / -= / |= style update of an integer-typed
// expression (commutative and associative; float accumulation is not).
func isIntegerAccum(info *types.Info, e ast.Expr, tok token.Token) bool {
	switch tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.OR_ASSIGN, token.AND_ASSIGN, token.XOR_ASSIGN:
	default:
		return false
	}
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isAppendTo(info *types.Info, rhs ast.Expr, obj types.Object) bool {
	call, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if b, ok := info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	first, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	return ok && objOf(info, first) == obj
}

// sortedAfter mirrors mapiterorder's collect-then-sort recognition:
// later in the node's body (the range sits directly in it — literals
// are their own call-graph nodes), the accumulated slice is an
// argument of a call whose callee name contains "sort" or that comes
// from package sort or slices.
func sortedAfter(info *types.Info, slice types.Object, rs *ast.RangeStmt, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(nd ast.Node) bool {
		call, ok := nd.(*ast.CallExpr)
		if !ok || found || call.Pos() < rs.End() {
			return !found
		}
		if !calleeNameContainsSort(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if usesObj(info, arg, slice) {
				found = true
			}
		}
		return !found
	})
	return found
}

func calleeNameContainsSort(info *types.Info, call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fun.Name), "sort")
	case *ast.SelectorExpr:
		if strings.Contains(strings.ToLower(fun.Sel.Name), "sort") {
			return true
		}
		if id, ok := fun.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[id].(*types.PkgName); ok {
				p := pn.Imported().Path()
				return p == "sort" || p == "slices"
			}
		}
	}
	return false
}

// isOutputCall mirrors mapiterorder: fmt printing and Write* methods
// externalize data in call order.
func isOutputCall(info *types.Info, call *ast.CallExpr) bool {
	fn := analysis.Callee(info, call)
	if fn == nil {
		return false
	}
	name := fn.Name()
	if fn.Type().(*types.Signature).Recv() != nil {
		switch name {
		case "Write", "WriteString", "WriteByte", "WriteRune":
			return true
		}
		return false
	}
	if fn.Pkg() == nil {
		return false
	}
	if fn.Pkg().Path() == "fmt" {
		return strings.HasPrefix(name, "Print") || strings.HasPrefix(name, "Fprint")
	}
	return false
}

func rangeVars(info *types.Info, rs *ast.RangeStmt) map[types.Object]bool {
	vars := make(map[types.Object]bool)
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := objOf(info, id); obj != nil {
				vars[obj] = true
			}
		}
	}
	return vars
}

func loopVarObj(info *types.Info, e ast.Expr) types.Object {
	if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
		return objOf(info, id)
	}
	return nil
}

func declaredWithin(obj types.Object, rs *ast.RangeStmt) bool {
	return obj.Pos() >= rs.Pos() && obj.Pos() < rs.End()
}

func usesObj(info *types.Info, root ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(root, func(nd ast.Node) bool {
		if id, ok := nd.(*ast.Ident); ok && !found {
			if info.Uses[id] == obj {
				found = true
			}
		}
		return !found
	})
	return found
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	default:
		return "value"
	}
}

func (c *checker) report(pos token.Pos, path []string, what string) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	p := c.pass.Fset.Position(pos)
	c.pass.Report(analysis.Diagnostic{
		Pos: c.root.Decl.Name.Pos(),
		Message: fmt.Sprintf("%s is annotated //prio:deterministic but can reach %s at %s:%d (path: %s)",
			c.root.Name(), what, filepath.Base(p.Filename), p.Line, strings.Join(path, " → ")),
		Path: append([]string(nil), path...),
	})
}
