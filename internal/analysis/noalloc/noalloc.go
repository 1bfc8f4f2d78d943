// Package noalloc statically proves the `//prio:noalloc` contract: a
// function carrying the annotation must not reach, through the
// whole-program call graph, any allocation site. The replication
// kernel's throughput claim (EXPERIMENTS.md) rests on this property;
// the runtime benchmark smoke (`make bench-sim-smoke`) measures it for
// the configurations the benchmark happens to run, and this analyzer
// pins it for every path the type system can see.
//
// # What counts as an allocation
//
// make, new, slice/map composite literals, address-taken composite
// literals, a growing append, string concatenation and conversions,
// value-to-interface boxing, escaping function literals (closure
// captures), goroutine launches, and any call into package fmt or
// another package whose source was not loaded (except the pure-math
// whitelist — math, math/bits — and the per-function steady-state
// whitelist below: strconv's Append* family and bytes.Buffer's Write*
// methods, which allocate only while growing a caller-owned buffer).
//
// # What is exempt: the steady-state contract
//
// The annotation promises zero allocations in *steady state* — after
// reusable buffers have grown to their high-water mark, on runs that
// neither fail nor panic. Three source patterns express exactly that
// and are therefore allowed:
//
//   - a make guarded by a capacity test: inside an if/else whose
//     condition calls cap or len (the grow-to-high-water-mark branch of
//     a reusable buffer);
//   - a self-append, x = append(x, ...): amortized growth of a
//     retained buffer (the backing array is reused after truncation);
//   - cold paths: an allocation inside the arguments of panic, inside
//     a conditional block whose last statement panics, or inside a
//     conditional block whose last statement returns a non-nil error
//     (steady state, by definition, is the run that takes none of
//     these branches). Calls made on cold paths are not traversed
//     either — panic(fmt.Sprintf(...)) is fine.
//
// A function literal is not an allocation when it cannot escape: it is
// invoked immediately, or bound once to a local variable whose every
// use is a direct call (the Go compiler keeps such closures on the
// stack; the kernel's assign helper is the motivating case).
//
// # Interface calls and test doubles
//
// A call through an interface fans out to every implementation
// declared in the loaded packages — each one must be allocation-free,
// and the diagnostic names the concrete method that is not.
// Implementations declared in _test.go files are exempt: test doubles
// record and assert, and do not run under the throughput benchmark.
// A call through an interface with no loaded implementation, a call
// through an unresolved function value, and a call into a package
// loaded only as export data are all violations: the contract is
// "proved clean", not "nothing suspicious found". Run the driver over
// ./... so the whole module is loaded from source.
//
// One interprocedural refinement keeps the kernel's observer hook
// honest: when an annotated function passes a literal nil for an
// interface parameter, calls dispatched through that parameter in the
// callee are dead and are not traversed. Runner.Run invokes the shared
// kernel loop with a nil Observer, so the Observer fan-out (which
// includes allocating trace printers) is provably unreachable from the
// annotated entry point.
//
// Diagnostics are reported at the annotated function and name the full
// call path to the offending site, e.g.
//
//	(*Runner).Run is annotated //prio:noalloc but can reach a growing
//	append at kernel.go:57 (path: (*Runner).Run → (*runState).run →
//	(*runState).push)
package noalloc

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/callgraph"
)

var Analyzer = &analysis.Analyzer{
	Name: "noalloc",
	Doc: "check that //prio:noalloc functions cannot reach an allocation " +
		"site through the call graph (steady-state growth and cold paths exempt)",
	RunProgram: run,
}

// Annotation is the marker comment, exported for the driver's docs.
const Annotation = "prio:noalloc"

// extWhitelist lists packages without loaded source whose functions are
// known not to allocate.
var extWhitelist = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// steadyStateExt lists individual external functions that allocate
// only while growing a caller-owned buffer to its high-water mark —
// the external-call form of the self-append exemption. strconv's
// Append* family writes into the slice it is handed and reallocates
// only on growth; bytes.Buffer's Write* methods do the same with the
// buffer's retained backing array. The serving layer's pooled response
// encoder (internal/serve.writePrioritizeJSON) is built from exactly
// these.
var steadyStateExt = map[string]bool{
	"strconv.AppendInt":           true,
	"strconv.AppendUint":          true,
	"strconv.AppendQuote":         true,
	"utf8.AppendRune":             true,
	"bytes.(*Buffer).Write":       true,
	"bytes.(*Buffer).WriteString": true,
	"bytes.(*Buffer).WriteByte":   true,
}

// site is one direct allocation site inside a function body. guards
// lists variables the enclosing if statements compare against nil
// (`if v != nil { ... }`): when the traversal knows such a variable is
// nil, the site is dead and skipped.
type site struct {
	pos    token.Pos
	what   string
	guards []*types.Var
}

// summary is the per-node allocation summary.
type summary struct {
	sites     []site             // non-exempt allocation sites, in source order
	coldCalls map[token.Pos]bool // Lparen of calls on cold paths
}

type checker struct {
	pass      *analysis.ProgramPass
	summaries map[*callgraph.Node]*summary
	// visited memoizes (node, nil-parameter context) traversals.
	visited map[visitKey]bool
	// reported dedupes (root, site position) pairs.
	reported map[token.Pos]map[token.Pos]bool
}

type visitKey struct {
	node *callgraph.Node
	ctx  string
}

func run(pass *analysis.ProgramPass) error {
	c := &checker{
		pass:      pass,
		summaries: make(map[*callgraph.Node]*summary),
		visited:   make(map[visitKey]bool),
		reported:  make(map[token.Pos]map[token.Pos]bool),
	}
	for _, n := range pass.Graph.Nodes {
		if n.Decl == nil || !annotated(n.Decl) {
			continue
		}
		c.visited = make(map[visitKey]bool) // memoization is per root
		c.reported[n.Decl.Name.Pos()] = make(map[token.Pos]bool)
		c.visit(n, n, nil, nil)
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

// visit checks node (with the given set of known-nil interface
// parameters) on behalf of root, extending path.
func (c *checker) visit(root, node *callgraph.Node, nilParams map[*types.Var]bool, path []string) {
	key := visitKey{node, ctxKey(nilParams)}
	if c.visited[key] {
		return
	}
	c.visited[key] = true
	path = append(path, node.Name())

	sum := c.summarize(node)
siteLoop:
	for _, s := range sum.sites {
		for _, g := range s.guards {
			if nilParams[g] {
				continue siteLoop // inside `if g != nil` with g provably nil
			}
		}
		c.report(root, path, s.pos, s.what)
	}
	for _, e := range node.Out {
		if e.Site != nil && sum.coldCalls[e.Site.Lparen] {
			continue // a call only a panicking or failing run makes
		}
		if e.Recv != nil {
			if v, ok := e.Recv.(*types.Var); ok && nilParams[v] {
				continue // dispatch through a provably nil interface
			}
		}
		switch {
		case e.Callee == nil:
			what := "a call through a function value the analyzer cannot resolve"
			if e.IfaceMethod != nil {
				what = fmt.Sprintf("a call through %s with no implementation loaded from source", callgraph.FuncKey(e.IfaceMethod))
			}
			c.report(root, path, e.Pos, what)
		case e.Kind == callgraph.Interface && e.Callee.InTest:
			// Test doubles are exempt from the steady-state contract.
		case e.Callee.Body == nil:
			if steadyStateExt[e.Callee.Key] {
				break
			}
			if pkg := nodePkgPath(e.Callee); !extWhitelist[pkg] {
				c.report(root, path, e.Pos,
					fmt.Sprintf("a call to %s, whose source is not loaded (run on ./... to verify it)", e.Callee.Key))
			}
		default:
			c.visit(root, e.Callee, calleeNilParams(node, e, nilParams), path)
		}
	}
}

// calleeNilParams computes the callee's known-nil interface parameters:
// arguments that are the literal nil or a variable already known nil.
// The implicit encloser-to-literal edge passes the current set through,
// because a literal captures its encloser's variables.
func calleeNilParams(caller *callgraph.Node, e callgraph.Edge, cur map[*types.Var]bool) map[*types.Var]bool {
	if e.Callee.Lit != nil && e.Site == nil {
		return cur // closure: captures see the encloser's bindings
	}
	if e.Site == nil {
		return nil
	}
	params := e.Callee.ParamObjs()
	if params == nil {
		return nil
	}
	var out map[*types.Var]bool
	for i, arg := range e.Site.Args {
		if i >= len(params) {
			break // variadic tail
		}
		p := params[i]
		if !types.IsInterface(p.Type()) {
			continue
		}
		nilArg := false
		ua := ast.Unparen(arg)
		if tv, ok := caller.Pkg.Info.Types[ua]; ok && tv.IsNil() {
			nilArg = true // the literal nil
		}
		if id, ok := ua.(*ast.Ident); ok {
			if v, ok := caller.Pkg.Info.Uses[id].(*types.Var); ok && cur[v] {
				nilArg = true // a variable already known nil
			}
		}
		if nilArg {
			if out == nil {
				out = make(map[*types.Var]bool)
			}
			out[p] = true
		}
	}
	if e.Callee.Lit != nil {
		// A direct call of a bound closure: captures still see the
		// encloser's bindings in addition to the arguments.
		for v := range cur {
			if out == nil {
				out = make(map[*types.Var]bool)
			}
			out[v] = true
		}
	}
	return out
}

// ctxKey renders a nil-parameter set as a stable string (token.Pos is
// deterministic for a deterministic load order).
func ctxKey(nilParams map[*types.Var]bool) string {
	if len(nilParams) == 0 {
		return ""
	}
	poss := make([]int, len(nilParams))
	i := 0
	for v := range nilParams {
		poss[i] = int(v.Pos())
		i++
	}
	for i := 1; i < len(poss); i++ { // insertion sort; sets are tiny
		for j := i; j > 0 && poss[j] < poss[j-1]; j-- {
			poss[j], poss[j-1] = poss[j-1], poss[j]
		}
	}
	var b strings.Builder
	for _, p := range poss {
		fmt.Fprintf(&b, "%d,", p)
	}
	return b.String()
}

func (c *checker) report(root *callgraph.Node, path []string, pos token.Pos, what string) {
	rootPos := root.Decl.Name.Pos()
	if c.reported[rootPos][pos] {
		return
	}
	c.reported[rootPos][pos] = true
	p := c.pass.Fset.Position(pos)
	msg := fmt.Sprintf("%s is annotated //prio:noalloc but can reach %s at %s:%d",
		root.Name(), what, filepath.Base(p.Filename), p.Line)
	if len(path) > 1 {
		msg += " (path: " + strings.Join(path, " → ") + ")"
	}
	c.pass.Report(analysis.Diagnostic{
		Pos:     rootPos,
		Message: msg,
		Path:    append([]string(nil), path...),
	})
}

func nodePkgPath(n *callgraph.Node) string {
	if n.Func != nil && n.Func.Pkg() != nil {
		return n.Func.Pkg().Path()
	}
	return ""
}

// summarize computes (and memoizes) the direct allocation sites of one
// node's body, excluding nested literals (they are their own nodes).
func (c *checker) summarize(n *callgraph.Node) *summary {
	if s, ok := c.summaries[n]; ok {
		return s
	}
	s := &summary{coldCalls: make(map[token.Pos]bool)}
	c.summaries[n] = s
	if n.Body == nil || n.Pkg == nil {
		return s
	}
	info := n.Pkg.Info

	returnsError := nodeReturnsError(n)
	callOnlyVars := callOnlyFuncVars(info, n.Body)

	analysis.WithStack(n.Body, func(nd ast.Node, stack []ast.Node) bool {
		guards := nonNilGuards(info, nd, stack)
		// Do not descend into nested literals: each is its own node.
		if lit, ok := nd.(*ast.FuncLit); ok {
			if !litExempt(info, lit, stack, callOnlyVars) && !isCold(nd, stack, returnsError) {
				s.add(lit.Pos(), "an escaping function literal (closure allocation)", guards)
			}
			return false
		}
		cold := isCold(nd, stack, returnsError)
		switch nd := nd.(type) {
		case *ast.CallExpr:
			if cold {
				s.coldCalls[nd.Lparen] = true
				return true
			}
			c.checkCall(s, info, nd, stack, guards)
		case *ast.CompositeLit:
			if cold {
				return true
			}
			c.checkCompositeLit(s, info, nd, stack, guards)
		case *ast.BinaryExpr:
			if cold {
				return true
			}
			if nd.Op == token.ADD && isStringExpr(info, nd) && !isConst(info, nd) {
				s.add(nd.OpPos, "a string concatenation", guards)
			}
		case *ast.AssignStmt:
			if cold {
				return true
			}
			c.checkBoxingAssign(s, info, nd, guards)
		case *ast.GoStmt:
			if !cold {
				s.add(nd.Go, "a goroutine launch", guards)
			}
		case *ast.ReturnStmt:
			if !cold {
				c.checkBoxingReturn(s, info, n, nd, guards)
			}
		}
		return true
	})
	return s
}

func (s *summary) add(pos token.Pos, what string, guards []*types.Var) {
	s.sites = append(s.sites, site{pos, what, guards})
}

// nonNilGuards collects the variables that enclosing if statements
// compare against nil on the path to nd: inside `if v != nil { ... }`
// (possibly conjoined with &&), v is a guard. The else branch is not
// guarded.
func nonNilGuards(info *types.Info, nd ast.Node, stack []ast.Node) []*types.Var {
	var guards []*types.Var
	for i, anc := range stack {
		ifs, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		child := nd
		if i+1 < len(stack) {
			child = stack[i+1]
		}
		if child != ast.Node(ifs.Body) {
			continue
		}
		var collect func(e ast.Expr)
		collect = func(e ast.Expr) {
			be, ok := ast.Unparen(e).(*ast.BinaryExpr)
			if !ok {
				return
			}
			switch be.Op {
			case token.LAND:
				collect(be.X)
				collect(be.Y)
			case token.NEQ:
				for _, pair := range [2][2]ast.Expr{{be.X, be.Y}, {be.Y, be.X}} {
					tv, ok := info.Types[pair[1]]
					if !ok || !tv.IsNil() {
						continue
					}
					if id, ok := ast.Unparen(pair[0]).(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok {
							guards = append(guards, v)
						}
					}
				}
			}
		}
		collect(ifs.Cond)
	}
	return guards
}

// checkCall classifies one non-cold call expression: builtin
// allocators, conversions, and boxing of arguments. Static callee
// reachability is the traversal's job, through the call graph.
func (c *checker) checkCall(s *summary, info *types.Info, call *ast.CallExpr, stack []ast.Node, guards []*types.Var) {
	fun := ast.Unparen(call.Fun)
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		c.checkConversion(s, info, call, guards)
		return
	}
	if id, ok := fun.(*ast.Ident); ok {
		if tv, ok := info.Types[fun]; ok && tv.IsBuiltin() {
			switch id.Name {
			case "make":
				if !capGuarded(stack) {
					s.add(call.Lparen, "a make", guards)
				}
			case "new":
				s.add(call.Lparen, "a new", guards)
			case "append":
				if !selfAppend(call, stack) {
					s.add(call.Lparen, "a growing append", guards)
				}
			}
			return
		}
	}
	c.checkBoxingArgs(s, info, call, guards)
}

// checkConversion flags conversions that materialize a new backing
// array: to string from anything but string, and from string to []byte
// or []rune. Constant conversions are free.
func (c *checker) checkConversion(s *summary, info *types.Info, call *ast.CallExpr, guards []*types.Var) {
	if len(call.Args) != 1 || isConst(info, call) {
		return
	}
	dst := info.TypeOf(call.Fun)
	src := info.TypeOf(call.Args[0])
	if dst == nil || src == nil {
		return
	}
	if isString(dst) && !isString(src) {
		s.add(call.Lparen, "a conversion to string", guards)
		return
	}
	if isByteOrRuneSlice(dst) && isString(src) {
		s.add(call.Lparen, "a string-to-slice conversion", guards)
	}
}

func (c *checker) checkCompositeLit(s *summary, info *types.Info, lit *ast.CompositeLit, stack []ast.Node, guards []*types.Var) {
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	switch t.Underlying().(type) {
	case *types.Slice:
		s.add(lit.Lbrace, "a slice literal", guards)
		return
	case *types.Map:
		s.add(lit.Lbrace, "a map literal", guards)
		return
	}
	// A struct or array literal allocates only when its address is
	// taken (escape analysis may still stack-allocate it, but the
	// contract demands the conservative reading).
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			s.add(u.OpPos, "an address-taken composite literal", guards)
		}
	}
}

// checkBoxingArgs flags non-interface values passed to interface
// parameters. panic's argument never reaches here: panic calls are
// cold by rule.
func (c *checker) checkBoxingArgs(s *summary, info *types.Info, call *ast.CallExpr, guards []*types.Var) {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		if boxes(info, arg, pt) {
			s.add(arg.Pos(), "value-to-interface boxing (argument)", guards)
		}
	}
}

func (c *checker) checkBoxingAssign(s *summary, info *types.Info, as *ast.AssignStmt, guards []*types.Var) {
	if len(as.Lhs) != len(as.Rhs) {
		return
	}
	for i, lhs := range as.Lhs {
		lt := info.TypeOf(lhs)
		if lt == nil || as.Tok == token.DEFINE {
			continue // a := declaration takes the RHS type; no boxing
		}
		if boxes(info, as.Rhs[i], lt) {
			s.add(as.Rhs[i].Pos(), "value-to-interface boxing (assignment)", guards)
		}
	}
}

func (c *checker) checkBoxingReturn(s *summary, info *types.Info, n *callgraph.Node, ret *ast.ReturnStmt, guards []*types.Var) {
	sig := nodeSignature(n)
	if sig == nil || len(ret.Results) != sig.Results().Len() {
		return
	}
	for i, res := range ret.Results {
		if boxes(info, res, sig.Results().At(i).Type()) {
			s.add(res.Pos(), "value-to-interface boxing (return)", guards)
		}
	}
}

// boxes reports whether assigning expr to a target of type dst performs
// an interface conversion that heap-allocates: dst is an interface,
// expr's type is concrete and not pointer-shaped, and expr is not the
// nil literal. Pointers box without allocating, so they pass.
func boxes(info *types.Info, expr ast.Expr, dst types.Type) bool {
	if dst == nil || !types.IsInterface(dst) {
		return false
	}
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	if tv.IsNil() || types.IsInterface(tv.Type) {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: fits in the interface word
	}
	return true
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	sl, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	return t != nil && isString(t)
}

func isConst(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	return ok && tv.Value != nil
}

// selfAppend reports whether call is the amortized reusable-buffer
// idiom x = append(x, ...): the append's result is assigned straight
// back to an expression identical to its first argument.
func selfAppend(call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 || len(stack) == 0 {
		return false
	}
	as, ok := stack[len(stack)-1].(*ast.AssignStmt)
	if !ok || as.Tok != token.ASSIGN {
		return false
	}
	for i, rhs := range as.Rhs {
		if rhs == call && i < len(as.Lhs) {
			return types.ExprString(as.Lhs[i]) == types.ExprString(ast.Unparen(call.Args[0]))
		}
	}
	return false
}

func nodeReturnsError(n *callgraph.Node) bool {
	sig := nodeSignature(n)
	if sig == nil || sig.Results().Len() == 0 {
		return false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	named, ok := last.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func nodeSignature(n *callgraph.Node) *types.Signature {
	if n.Func != nil {
		return n.Func.Type().(*types.Signature)
	}
	if n.Lit != nil && n.Pkg != nil {
		if sig, ok := n.Pkg.Info.TypeOf(n.Lit).(*types.Signature); ok {
			return sig
		}
	}
	return nil
}

// isCold reports whether the node sits on a path steady state cannot
// take: inside the arguments of a panic call, or inside a conditional
// block (if/else/case body — never the function body itself) whose
// final statement panics or returns a non-nil error (the latter only
// in functions whose last result is an error).
func isCold(nd ast.Node, stack []ast.Node, returnsError bool) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(anc.Fun).(*ast.Ident); ok && id.Name == "panic" && id.Obj == nil {
				return true
			}
		case *ast.BlockStmt:
			// The function body is the outermost block: stack[0] is the
			// body handed to WithStack, so only deeper blocks count.
			if i == 0 {
				continue
			}
			if blockIsCold(anc.List, returnsError) {
				return true
			}
		case *ast.CaseClause:
			if blockIsCold(anc.Body, returnsError) {
				return true
			}
		case *ast.CommClause:
			if blockIsCold(anc.Body, returnsError) {
				return true
			}
		}
	}
	return false
}

func blockIsCold(stmts []ast.Stmt, returnsError bool) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" && id.Obj == nil {
				return true
			}
		}
	case *ast.ReturnStmt:
		if !returnsError || len(last.Results) == 0 {
			return false
		}
		final := ast.Unparen(last.Results[len(last.Results)-1])
		if id, ok := final.(*ast.Ident); ok && id.Name == "nil" {
			return false
		}
		return true
	}
	return false
}

// capGuarded reports whether the make sits inside an if (or its else)
// whose condition inspects cap or len — the reusable-buffer grow
// branch.
func capGuarded(stack []ast.Node) bool {
	for i := len(stack) - 1; i >= 0; i-- {
		ifs, ok := stack[i].(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifs.Cond, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && (id.Name == "cap" || id.Name == "len") && id.Obj == nil {
					guarded = true
				}
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}

// litExempt reports whether a function literal cannot escape: it is
// invoked immediately, or it is the single binding of a local variable
// whose every use is a direct call.
func litExempt(info *types.Info, lit *ast.FuncLit, stack []ast.Node, callOnly map[*types.Var]bool) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.CallExpr:
		if ast.Unparen(parent.Fun) == lit {
			return true // immediately invoked
		}
	case *ast.AssignStmt:
		for i, rhs := range parent.Rhs {
			if rhs != lit || i >= len(parent.Lhs) {
				continue
			}
			if id, ok := parent.Lhs[i].(*ast.Ident); ok {
				if v, ok := objOf(info, id).(*types.Var); ok && callOnly[v] {
					return true
				}
			}
		}
	case *ast.ValueSpec:
		for i, val := range parent.Values {
			if val != lit || i >= len(parent.Names) {
				continue
			}
			if v, ok := info.Defs[parent.Names[i]].(*types.Var); ok && callOnly[v] {
				return true
			}
		}
	}
	return false
}

// callOnlyFuncVars finds local function-typed variables assigned
// exactly once and only ever used in call position — closures the
// compiler keeps on the stack.
func callOnlyFuncVars(info *types.Info, body ast.Node) map[*types.Var]bool {
	writes := make(map[*types.Var]int)
	badUse := make(map[*types.Var]bool)
	candidates := make(map[*types.Var]bool)
	analysis.WithStack(body, func(nd ast.Node, stack []ast.Node) bool {
		id, ok := nd.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := objOf(info, id).(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if _, isSig := v.Type().Underlying().(*types.Signature); !isSig {
			return true
		}
		if len(stack) == 0 {
			return true
		}
		switch parent := stack[len(stack)-1].(type) {
		case *ast.AssignStmt:
			for i, lhs := range parent.Lhs {
				if lhs == nd {
					writes[v]++
					if i < len(parent.Rhs) {
						if _, isLit := parent.Rhs[i].(*ast.FuncLit); isLit {
							candidates[v] = true
						}
					}
					return true
				}
			}
			badUse[v] = true // used on the RHS as a value
		case *ast.ValueSpec:
			for i, name := range parent.Names {
				if name == nd {
					writes[v]++
					if i < len(parent.Values) {
						if _, isLit := parent.Values[i].(*ast.FuncLit); isLit {
							candidates[v] = true
						}
					}
					return true
				}
			}
			badUse[v] = true
		case *ast.CallExpr:
			if ast.Unparen(parent.Fun) != nd {
				badUse[v] = true // passed as an argument
			}
		default:
			badUse[v] = true
		}
		return true
	})
	out := make(map[*types.Var]bool)
	for v := range candidates {
		if writes[v] == 1 && !badUse[v] {
			out[v] = true
		}
	}
	return out
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}
