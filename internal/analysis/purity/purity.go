// Package purity statically proves the `//prio:pure` contract: an
// annotated function must be deterministic and effect-free — it may
// not, directly or through any statically resolvable call chain, write
// package-level state, read the clock (time.Now/Since/Until), draw
// from the global random source (math/rand package-level functions),
// or perform I/O (anything in os, net, or syscall, and the fmt
// Print/Scan families). The bit-identical-schedule guarantee that the
// replication experiments rest on (a Prioritize call must produce the
// same schedule on every run and on every goroutine) is exactly this
// contract.
//
// The analyzer is a package pass that propagates facts: the driver
// analyzes packages in dependency order, each pass summarizes every
// function it sees (not just annotated ones) and exports an Impure
// fact for each function that can reach an effect. When the annotated
// entry point in core is analyzed, a violation deep inside
// internal/bitset is already recorded as a fact on the bitset function,
// and the diagnostic carries the whole chain:
//
//	Prioritize is annotated //prio:pure but calls bitset.Set.Add,
//	which calls time.Now at bitset.go:48
//
// Writes are detected syntactically: an assignment, increment, or
// indexed store whose destination resolves to a package-level
// variable (its own package's or an imported one's). Writes that
// launder a global through a pointer (`p := &global; p.x = 1`) are
// not caught; the repository's globals are sentinel values and seeds,
// never written, so the syntactic check plus code review carries the
// contract. Calls the analyzer cannot resolve — through interfaces or
// function values — are assumed pure: the scheduler's comparator
// closures and policy objects are themselves checked wherever they
// are declared, and the differential tests remain the backstop for
// what static analysis assumes away.
package purity

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "purity",
	Doc: "check that //prio:pure functions cannot reach clock reads, global " +
		"rand, I/O, or package-level state writes (facts propagate the check " +
		"across packages)",
	Run: run,
}

// Annotation is the marker comment, exported for the driver's docs.
const Annotation = "prio:pure"

// Impure is the fact exported for every function that can reach an
// effect. Because reads as the continuation of "<function> ...", e.g.
// "calls time.Now at sched.go:10".
type Impure struct {
	Because string
}

func (*Impure) AFact() {}

// bannedFuncs maps "pkgpath.Name" of package-level functions to the
// effect they perform.
var bannedFuncs = map[string]string{
	"time.Now":   "reads the clock",
	"time.Since": "reads the clock",
	"time.Until": "reads the clock",
}

// bannedPkgs lists packages any call into which is an effect.
var bannedPkgs = map[string]string{
	"os":      "performs I/O",
	"net":     "performs I/O",
	"syscall": "performs I/O",
}

// fmtIO lists the fmt functions that perform I/O (the Sprint family
// and Errorf are pure).
var fmtIO = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Scan": true, "Scanf": true, "Scanln": true,
	"Fscan": true, "Fscanf": true, "Fscanln": true,
	"Sscan": true, "Sscanf": true, "Sscanln": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	// Collect every declared function, its direct effects, and its
	// static calls; then propagate impurity to a fixpoint inside the
	// package (declarations may call each other in any order).
	type fnInfo struct {
		decl      *ast.FuncDecl
		fn        *types.Func
		reason    string // direct effect, or "" if none found
		annotated bool
		calls     []*types.Func // static callees, in source order
	}
	var fns []*fnInfo
	index := make(map[*types.Func]*fnInfo)

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			fi := &fnInfo{decl: fd, fn: fn, annotated: annotated(fd)}
			fi.reason, fi.calls = summarize(pass, fd)
			fns = append(fns, fi)
			index[fn] = fi
		}
	}

	// Fixpoint: a function calling an impure function is impure. Facts
	// cover callees in already-analyzed packages; index covers this one.
	for changed := true; changed; {
		changed = false
		for _, fi := range fns {
			if fi.reason != "" {
				continue
			}
			for _, callee := range fi.calls {
				because := ""
				if other, ok := index[callee.Origin()]; ok {
					because = other.reason
				} else if pass.Facts != nil {
					var imp Impure
					if pass.Facts.ImportObjectFact(callee, &imp) {
						because = imp.Because
					}
				}
				if because != "" {
					fi.reason = fmt.Sprintf("calls %s, which %s", funcName(callee), because)
					changed = true
					break
				}
			}
		}
	}

	for _, fi := range fns {
		if fi.reason == "" {
			continue
		}
		if pass.Facts != nil {
			pass.Facts.ExportObjectFact(fi.fn, &Impure{Because: fi.reason})
		}
		if fi.annotated {
			pass.Reportf(fi.decl.Name.Pos(), "%s is annotated //prio:pure but %s",
				fi.fn.Name(), fi.reason)
		}
	}
	return nil, nil
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

// summarize walks one declaration (nested literals included: a closure
// acts on behalf of its encloser) and returns its first direct effect
// and its static callees.
func summarize(pass *analysis.Pass, fd *ast.FuncDecl) (reason string, calls []*types.Func) {
	effect := func(pos token.Pos, format string, args ...interface{}) {
		if reason != "" {
			return // first effect in source order wins
		}
		p := pass.Fset.Position(pos)
		reason = fmt.Sprintf(format, args...) +
			fmt.Sprintf(" at %s:%d", filepath.Base(p.Filename), p.Line)
	}
	ast.Inspect(fd, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if v := writtenGlobal(pass, lhs); v != nil {
					effect(lhs.Pos(), "writes package-level variable %s", v.Name())
				}
			}
		case *ast.IncDecStmt:
			if v := writtenGlobal(pass, n.X); v != nil {
				effect(n.X.Pos(), "writes package-level variable %s", v.Name())
			}
		case *ast.CallExpr:
			fn := analysis.Callee(pass.TypesInfo, n)
			if fn == nil {
				return true // builtin, conversion, or dynamic: assumed pure
			}
			if why := banned(fn); why != "" {
				effect(n.Lparen, "%s (%s)", why, funcName(fn))
				return true
			}
			if fn.Pkg() != nil {
				calls = append(calls, fn)
			}
		}
		return true
	})
	return reason, calls
}

// banned reports the effect a callee performs by contract, or "".
func banned(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	path := pkg.Path()
	recv := fn.Type().(*types.Signature).Recv()
	if why, ok := bannedFuncs[path+"."+fn.Name()]; ok && recv == nil {
		return why
	}
	if why, ok := bannedPkgs[rootPkg(path)]; ok {
		return why
	}
	if (path == "math/rand" || path == "math/rand/v2") && recv == nil &&
		!strings.HasPrefix(fn.Name(), "New") {
		// New/NewSource/NewPCG... construct local deterministic sources;
		// every other package-level function draws from the global one.
		return "draws from the global random source"
	}
	if path == "fmt" && recv == nil && fmtIO[fn.Name()] {
		return "performs I/O"
	}
	return ""
}

// rootPkg returns the first path element: "net/http" -> "net".
func rootPkg(path string) string {
	if i := strings.IndexByte(path, '/'); i >= 0 {
		return path[:i]
	}
	return path
}

// writtenGlobal resolves an assignment destination to the package-level
// variable it stores into: a plain identifier, a field selection on
// one, or an index into one.
func writtenGlobal(pass *analysis.Pass, lhs ast.Expr) *types.Var {
	for {
		switch e := lhs.(type) {
		case *ast.ParenExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			// Either pkg.Var or global.Field: the selector's object
			// settles the former, the base the latter.
			if v, ok := pass.TypesInfo.Uses[e.Sel].(*types.Var); ok && isGlobal(v) && !v.IsField() {
				return v
			}
			lhs = e.X
		case *ast.Ident:
			if v, ok := pass.ObjectOf(e).(*types.Var); ok && isGlobal(v) {
				return v
			}
			return nil
		case *ast.StarExpr:
			lhs = e.X // *p = v: only caught when p is itself a global
		default:
			return nil
		}
	}
}

func isGlobal(v *types.Var) bool {
	return v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

func funcName(fn *types.Func) string {
	pkg := ""
	if fn.Pkg() != nil {
		path := fn.Pkg().Path()
		if i := strings.LastIndexByte(path, '/'); i >= 0 {
			path = path[i+1:]
		}
		pkg = path + "."
	}
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		rt := recv.Type()
		ptr := ""
		if p, ok := rt.(*types.Pointer); ok {
			rt = p.Elem()
			ptr = "*"
		}
		if named, ok := rt.(*types.Named); ok {
			return fmt.Sprintf("%s(%s%s).%s", pkg, ptr, named.Obj().Name(), fn.Name())
		}
	}
	return pkg + fn.Name()
}
