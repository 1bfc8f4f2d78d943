// Package inline proves the `//prio:inline` contract: an annotated
// function must be inlinable, and every call to it from inside a
// `//prio:nobce` function must actually be inlined by the compiler.
// The annotation marks the kernel's smallest hot helpers
// (MinSet.Add/PopMin/Reset, runState.nextOcc), whose cost model
// assumes no call overhead on the drain path — and whose own
// bounds-check-freedom the callers' //prio:nobce proofs silently
// depend on, since an inlined body's checks land on the caller.
//
// Two failure shapes are reported, each with the compiler's verdict:
//
//   - the annotated function itself is not inlinable ("cannot inline
//     F: function too complex: cost 93 exceeds budget 80") — reported
//     at its declaration with the compiler's reason, so the fix (trim
//     the body, hoist the slow path) is concrete, and again at each
//     hot call site still paying the dispatch;
//   - the function is inlinable but a specific hot call site was not
//     inlined (e.g. the caller crossed the inliner's big-function
//     threshold, which lowers the per-call budget) — reported at the
//     call site with the callee's cost.
//
// Calls from unannotated functions are not checked: the contract
// covers the proven-hot regions, not every use.
package inline

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/compilerfact"
	"repro/internal/analysis/pragma"
)

var Analyzer = &analysis.Analyzer{
	Name: "inline",
	Doc: "check that //prio:inline functions are inlinable and actually inlined " +
		"into every //prio:nobce caller",
	RunProgram:         run,
	NeedsCompilerFacts: true,
}

// Annotation is the marker comment, exported for the driver's docs.
const Annotation = "prio:inline"

// hotCaller is the annotation whose bodies demand inlined calls.
const hotCaller = "prio:nobce"

// A callee is one //prio:inline function, keyed by types.Func.FullName
// so calls resolved through gc export data in other packages match the
// source-checked declaration.
type callee struct {
	decl *ast.FuncDecl
	// decision is the compiler's verdict at the declaration line;
	// compiled is false when the declaration was not in the build.
	decision compilerfact.InlineDecision
	compiled bool
}

func run(pass *analysis.ProgramPass) error {
	cf := pass.Compiler
	if cf == nil {
		return fmt.Errorf("inline: no compiler facts attached (driver must run the toolchain first)")
	}

	// Pass 1: collect the //prio:inline functions and check each is
	// inlinable at all.
	callees := make(map[string]*callee)
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || !pragma.Has(fd.Doc, Annotation) {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if _, dup := callees[fn.FullName()]; dup {
					continue // test variant re-declares the package
				}
				c := &callee{decl: fd}
				start := pkg.Fset.Position(fd.Pos())
				c.decision, c.compiled = cf.Decisions[compilerfact.FileLine{File: start.Filename, Line: start.Line}]
				callees[fn.FullName()] = c
				switch {
				case !c.compiled:
					pass.Reportf(fd.Name.Pos(),
						"%s is annotated //prio:inline but the compiler emitted no record for it — the file was not part of the compiler-fact build, so the contract is unproved",
						fd.Name.Name)
				case !c.decision.CanInline:
					pass.Reportf(fd.Name.Pos(),
						"%s is annotated //prio:inline but the compiler cannot inline it: %s",
						fd.Name.Name, c.decision.Reason)
				}
			}
		}
	}
	if len(callees) == 0 {
		return nil
	}

	// Pass 2: every call to a collected callee from inside a hot
	// (nobce) function must carry an "inlining call to" note.
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !pragma.Has(fd.Doc, hotCaller) {
					continue
				}
				ast.Inspect(fd.Body, func(nd ast.Node) bool {
					call, ok := nd.(*ast.CallExpr)
					if !ok {
						return true
					}
					fn := analysis.Callee(pkg.Info, call)
					if fn == nil {
						return true
					}
					c, marked := callees[fn.FullName()]
					if !marked || !c.compiled {
						return true // unannotated, or unproved (reported at the declaration)
					}
					callPos := pkg.Fset.Position(call.Lparen)
					for _, name := range cf.InlinedCallsOn(callPos.Filename, callPos.Line) {
						if nameMatches(name, fn) {
							return true
						}
					}
					if c.decision.CanInline {
						pass.Reportf(call.Lparen,
							"%s is annotated //prio:inline (cost %d fits the budget) but the compiler did not inline this call inside %s",
							fn.Name(), c.decision.Cost, fd.Name.Name)
					} else {
						pass.Reportf(call.Lparen,
							"%s is annotated //prio:inline but stays a call inside %s: %s",
							fn.Name(), fd.Name.Name, c.decision.Reason)
					}
					return true
				})
			}
		}
	}
	return nil
}

// nameMatches reports whether the compiler's spelling of an inlined
// callee ("tiny", "(*MinSet).Add", "bitset.(*MinSet).Add") names fn.
// Cross-package notes qualify with the package name; same-package
// notes do not — so the unqualified candidate must match exactly or as
// a ".".-separated suffix.
func nameMatches(reported string, fn *types.Func) bool {
	cand := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		named, ok := t.(*types.Named)
		if !ok {
			return false
		}
		if ptr != "" {
			cand = "(*" + named.Obj().Name() + ")." + fn.Name()
		} else {
			cand = named.Obj().Name() + "." + fn.Name()
		}
	}
	if reported == cand {
		return true
	}
	return strings.HasSuffix(reported, "."+cand)
}
