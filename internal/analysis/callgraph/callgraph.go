// Package callgraph builds a whole-program call graph over the
// packages a driver run loaded from source. Nodes are function
// declarations, methods, and function literals; edges are recorded at
// every call expression with a classification the interprocedural
// analyzer (nestedlock) and the -debug-callgraph dump report:
//
//   - Static: the callee is a single known function — a package-level
//     call, a method call on a concrete receiver, a call of a local
//     variable that is provably bound to one function literal, or the
//     implicit call edge from a function to the literals it encloses
//     (a literal's body executes on behalf of its encloser in every
//     use this repository makes of closures).
//   - Interface: a method call through an interface value. The graph
//     resolves it conservatively to every named type declared in the
//     loaded packages whose method set implements the interface: one
//     edge per implementation, all sharing the call site. Types from
//     packages that were only imported as export data contribute no
//     implementations; drivers that need the full picture load ./...,
//     which covers the module.
//   - Dynamic: a call through a function value the builder cannot
//     bind to a literal (stored fields, parameters, map lookups).
//     Analyzers treat these conservatively according to their own
//     contract.
//
// Functions referenced but not loaded from source (standard library,
// export-data-only dependencies) become body-less external nodes, so
// "callee we cannot see into" is an explicit state rather than a
// missing edge. The builder visits packages, files, and syntax in
// order, so Nodes and every edge list are deterministic.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"repro/internal/analysis/load"
)

// Kind classifies a call edge.
type Kind int

const (
	Static Kind = iota
	Interface
	Dynamic
)

func (k Kind) String() string {
	switch k {
	case Static:
		return "static"
	case Interface:
		return "interface"
	default:
		return "dynamic"
	}
}

// A Node is one function: a declaration, a method, a function literal,
// or an external (body-less) function known only through export data.
type Node struct {
	// Key uniquely names the node: "pkg.Func", "pkg.(Recv).Method", or
	// "<encloser key>$litN" for literals.
	Key string
	// Body is nil for external nodes (no source loaded).
	Body *ast.BlockStmt
	// Pkg is the loaded package containing the node, nil for external
	// nodes.
	Pkg *load.Package
	// Out lists the node's call edges in source order (interface edges
	// fan out in implementation-key order at one site).
	Out []Edge
}

// An Edge is one call (or closure/method-value reference) from a node.
type Edge struct {
	// Callee is the target, nil only for unresolved Dynamic edges.
	Callee *Node
	Kind   Kind
	Pos    token.Pos
	// Site is the call expression, nil for the implicit
	// encloser-to-literal and method-value edges.
	Site *ast.CallExpr
	// IfaceMethod is the interface method called, for Interface edges.
	IfaceMethod *types.Func
}

// Name returns a human-readable node name for diagnostics:
// "(*Type).Method", "Func", or "Func$lit1", qualified with the package
// path's last element when pkg differs from from's package.
func (n *Node) Name() string {
	key := n.Key
	if i := strings.LastIndexByte(key, '/'); i >= 0 {
		key = key[i+1:]
	}
	if i := strings.IndexByte(key, '.'); i >= 0 {
		return key[i+1:]
	}
	return key
}

// Graph is the whole-program call graph.
type Graph struct {
	Nodes []*Node

	byFunc map[*types.Func]*Node
	byKey  map[string]*Node

	// ifaceImpls caches interface-method resolution.
	ifaceImpls map[*types.Func][]*Node
	// named lists every named type declared in the loaded packages, in
	// deterministic order, for interface resolution.
	named []*types.Named
}

// FuncKey returns the stable cross-package key for fn ("pkg.Name" or
// "pkg.(Recv).Name"), normalizing generic instantiations to their
// origin. Interface methods get a key under the interface's package so
// external nodes for them are well-defined.
func FuncKey(fn *types.Func) string {
	fn = fn.Origin()
	pkg := ""
	if fn.Pkg() != nil {
		pkg = fn.Pkg().Path()
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		rt := sig.Recv().Type()
		ptr := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			ptr = "*"
		}
		switch t := rt.(type) {
		case *types.Named:
			return fmt.Sprintf("%s.(%s%s).%s", pkg, ptr, t.Origin().Obj().Name(), fn.Name())
		case *types.Interface:
			return fmt.Sprintf("%s.(interface).%s", pkg, fn.Name())
		}
	}
	return pkg + "." + fn.Name()
}

// NodeOf returns the node for fn, unifying source-checked,
// export-imported, and instantiated views of the same function. A
// function with no loaded source gets a memoized external node.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	fn = fn.Origin()
	if n, ok := g.byFunc[fn]; ok {
		return n
	}
	key := FuncKey(fn)
	if n, ok := g.byKey[key]; ok {
		g.byFunc[fn] = n
		return n
	}
	n := &Node{Key: key}
	g.byFunc[fn] = n
	g.byKey[key] = n
	g.Nodes = append(g.Nodes, n)
	return n
}

// Build constructs the graph for the given packages (in the order load
// returned them, which the driver keeps topological).
func Build(pkgs []*load.Package) *Graph {
	g := &Graph{
		byFunc:     make(map[*types.Func]*Node),
		byKey:      make(map[string]*Node),
		ifaceImpls: make(map[*types.Func][]*Node),
	}

	// Pass 1: nodes for every declared function, and the named-type
	// universe for interface resolution.
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		names := scope.Names() // sorted by go/types
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					g.named = append(g.named, named)
				}
			}
		}
		ninits := 0
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				var n *Node
				if fd.Name.Name == "init" && fd.Recv == nil {
					// Every init function is a distinct object sharing
					// one name; give each its own node.
					ninits++
					n = &Node{Key: fmt.Sprintf("%s.init#%d", pkg.ImportPath, ninits)}
					g.byFunc[fn] = n
					g.Nodes = append(g.Nodes, n)
				} else {
					n = g.NodeOf(fn)
				}
				n.Body = fd.Body
				n.Pkg = pkg
			}
		}
	}

	// Pass 2: edges.
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				b := &builder{g: g, pkg: pkg}
				b.walk(g.NodeOf(fn), fd.Body)
			}
		}
	}
	return g
}

// builder walks one declaration's body, tracking the innermost function
// node so literal bodies attribute their calls to the literal.
type builder struct {
	g        *Graph
	pkg      *load.Package
	nlits    int
	callFuns map[*ast.SelectorExpr]bool
}

// walk attributes the calls, literals, and method values syntactically
// inside body (stopping at nested literals, which recurse with their
// own node) to cur.
func (b *builder) walk(cur *Node, body ast.Node) {
	byLit, byVar := b.localFuncBindings(body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			b.nlits++
			lit := &Node{
				Key:  fmt.Sprintf("%s$lit%d", cur.Key, b.nlits),
				Body: n.Body,
				Pkg:  b.pkg,
			}
			b.g.Nodes = append(b.g.Nodes, lit)
			if bound, ok := byLit[n]; ok {
				bound.node = lit
			}
			cur.Out = append(cur.Out, Edge{Callee: lit, Kind: Static, Pos: n.Pos()})
			b.walk(lit, n.Body)
			return false
		case *ast.CallExpr:
			b.call(cur, n, byVar)
			return true
		case *ast.SelectorExpr:
			// A method value (x.M not in call position) references the
			// method; record the edge so its body stays reachable.
			if sel, ok := b.pkg.Info.Selections[n]; ok && sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok && !b.isCallFun(n) {
					cur.Out = append(cur.Out, Edge{Callee: b.g.NodeOf(fn), Kind: Static, Pos: n.Sel.Pos()})
				}
			}
			return true
		}
		return true
	})
}

// isCallFun reports whether sel is the Fun of a call expression (the
// ordinary method-call case), as opposed to a method value. Checked by
// looking at the selector's parent via the type-checker: a MethodVal
// selection used as a call Fun has its CallExpr in Types.
func (b *builder) isCallFun(sel *ast.SelectorExpr) bool {
	// The AST gives no parent pointers; instead, method calls record
	// the *call* in Types with a value, and the walk below visits the
	// CallExpr first, consuming its Fun. Track them.
	_, ok := b.callFuns[sel]
	return ok
}

// call classifies one call expression and appends the resulting edges.
func (b *builder) call(cur *Node, call *ast.CallExpr, byVar map[*types.Var]*binding) {
	info := b.pkg.Info
	fun := ast.Unparen(call.Fun)
	if b.callFuns == nil {
		b.callFuns = make(map[*ast.SelectorExpr]bool)
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		b.callFuns[sel] = true
	}
	if tv, ok := info.Types[fun]; ok && (tv.IsType() || tv.IsBuiltin()) {
		return // conversion or builtin
	}

	switch fun := fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn := sel.Obj().(*types.Func)
			recvType := sel.Recv()
			if types.IsInterface(recvType) {
				b.ifaceCall(cur, call, fn)
				return
			}
			cur.Out = append(cur.Out, Edge{Callee: b.g.NodeOf(fn), Kind: Static, Pos: call.Lparen, Site: call})
			return
		}
		// Package-qualified function or a function-valued field/var.
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			cur.Out = append(cur.Out, Edge{Callee: b.g.NodeOf(fn), Kind: Static, Pos: call.Lparen, Site: call})
			return
		}
		cur.Out = append(cur.Out, Edge{Kind: Dynamic, Pos: call.Lparen, Site: call})
	case *ast.Ident:
		switch obj := info.Uses[fun].(type) {
		case *types.Func:
			cur.Out = append(cur.Out, Edge{Callee: b.g.NodeOf(obj), Kind: Static, Pos: call.Lparen, Site: call})
		case *types.Var:
			// A function value. Bound to exactly one literal in this
			// body -> static edge to the literal.
			if bind := byVar[obj]; bind != nil && bind.node != nil && bind.unique {
				cur.Out = append(cur.Out, Edge{Callee: bind.node, Kind: Static, Pos: call.Lparen, Site: call})
				return
			}
			cur.Out = append(cur.Out, Edge{Kind: Dynamic, Pos: call.Lparen, Site: call})
		default:
			cur.Out = append(cur.Out, Edge{Kind: Dynamic, Pos: call.Lparen, Site: call})
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: the literal node and its edge
		// were created by the FuncLit case of walk.
	default:
		cur.Out = append(cur.Out, Edge{Kind: Dynamic, Pos: call.Lparen, Site: call})
	}
}

// ifaceCall resolves a call through an interface to every implementing
// named type in the loaded packages, one edge per implementation.
func (b *builder) ifaceCall(cur *Node, call *ast.CallExpr, ifaceFn *types.Func) {
	impls := b.g.implsOf(ifaceFn)
	for _, impl := range impls {
		cur.Out = append(cur.Out, Edge{
			Callee: impl, Kind: Interface, Pos: call.Lparen, Site: call,
			IfaceMethod: ifaceFn,
		})
	}
	if len(impls) == 0 {
		// No loaded implementation: keep the site visible as dynamic.
		cur.Out = append(cur.Out, Edge{
			Kind: Interface, Pos: call.Lparen, Site: call,
			IfaceMethod: ifaceFn,
		})
	}
}

// implsOf returns (and caches) the method nodes implementing the given
// interface method among the loaded named types, sorted by key.
func (g *Graph) implsOf(ifaceFn *types.Func) []*Node {
	if impls, ok := g.ifaceImpls[ifaceFn]; ok {
		return impls
	}
	sig := ifaceFn.Type().(*types.Signature)
	iface, _ := sig.Recv().Type().Underlying().(*types.Interface)
	var impls []*Node
	if iface != nil {
		seen := make(map[*Node]bool)
		for _, named := range g.named {
			if types.IsInterface(named) {
				continue
			}
			ptr := types.NewPointer(named)
			if !types.Implements(named, iface) && !types.Implements(ptr, iface) {
				continue
			}
			ms := types.NewMethodSet(ptr)
			selObj := ms.Lookup(ifaceFn.Pkg(), ifaceFn.Name())
			if selObj == nil {
				continue
			}
			fn, ok := selObj.Obj().(*types.Func)
			if !ok {
				continue
			}
			n := g.NodeOf(fn)
			if !seen[n] {
				seen[n] = true
				impls = append(impls, n)
			}
		}
	}
	sort.Slice(impls, func(i, j int) bool { return impls[i].Key < impls[j].Key })
	g.ifaceImpls[ifaceFn] = impls
	return impls
}

// binding records one local variable bound to a function literal.
type binding struct {
	obj    *types.Var
	node   *Node // filled in when the literal's node is created
	unique bool  // single assignment, so calls of obj resolve statically
}

// localFuncBindings finds `f := func(...){...}` (or var f = func...)
// bindings in body whose variable is assigned exactly once, so calls of
// f can be treated as static calls of the literal. Reassignments inside
// nested literals count against uniqueness, so the whole subtree is
// scanned.
func (b *builder) localFuncBindings(body ast.Node) (map[*ast.FuncLit]*binding, map[*types.Var]*binding) {
	info := b.pkg.Info
	assigns := make(map[*types.Var]int)
	byLit := make(map[*ast.FuncLit]*binding)
	var order []*binding
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				v, _ := objOf(info, id).(*types.Var)
				if v == nil {
					continue
				}
				assigns[v]++
				if i < len(n.Rhs) {
					if lit, ok := n.Rhs[i].(*ast.FuncLit); ok {
						bind := &binding{obj: v}
						byLit[lit] = bind
						order = append(order, bind)
					}
				}
			}
		case *ast.ValueSpec:
			for i, id := range n.Names {
				v, _ := info.Defs[id].(*types.Var)
				if v == nil {
					continue
				}
				assigns[v]++
				if i < len(n.Values) {
					if lit, ok := n.Values[i].(*ast.FuncLit); ok {
						bind := &binding{obj: v}
						byLit[lit] = bind
						order = append(order, bind)
					}
				}
			}
		}
		return true
	})
	byVar := make(map[*types.Var]*binding)
	for _, bind := range order {
		bind.unique = assigns[bind.obj] == 1
		if bind.unique {
			byVar[bind.obj] = bind
		}
	}
	return byLit, byVar
}

func objOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// DebugDump renders every edge as one line, sorted, for the driver's
// -debug-callgraph flag.
func (g *Graph) DebugDump(fset *token.FileSet) []string {
	var lines []string
	for _, n := range g.Nodes {
		for _, e := range n.Out {
			target := "<dynamic>"
			if e.Callee != nil {
				target = e.Callee.Key
			}
			via := ""
			if e.IfaceMethod != nil {
				via = " via " + FuncKey(e.IfaceMethod)
			}
			lines = append(lines, fmt.Sprintf("%s -> %s [%s%s] %s",
				n.Key, target, e.Kind, via, fset.Position(e.Pos)))
		}
	}
	sort.Strings(lines)
	return lines
}
