// Package devirt proves that interface method calls lexically inside
// `//prio:noalloc` functions are devirtualized: the compiler resolves
// them to a concrete target ("devirtualizing h.Sum to small") instead
// of emitting an indirect call through the itab. An indirect call on
// the zero-allocation path costs the dispatch itself, blocks inlining
// of the target, and hides the callee from the very escape analysis
// the noalloc contract leans on — so the hot regions must not contain
// one the compiler cannot see through.
//
// The scope is lexical, not reachability-based, by design: the
// simulator's outer driver loop dispatches policies through an
// interface on purpose (it is cold per replication), and a
// reachability rule would force annotations onto genuinely polymorphic
// code. Calls on cold paths (panic arguments, blocks ending in panic
// or a non-nil error return) are exempt, mirroring the noalloc
// exemptions. The CI injection probe against the devirtclean fixture
// proves the check is not vacuous.
//
// A function may additionally (or instead) be annotated //prio:devirt:
// the same proof obligation on its interface calls, plus a census
// obligation — the body must contain at least one non-cold interface
// call. That positive half exists for deliberate devirtualized seams:
// without it, refactoring the seam away (say, into a direct field
// read) would leave the pragma asserting a proof about nothing.
package devirt

import (
	"fmt"
	"go/ast"
	"go/types"

	"repro/internal/analysis"
	"repro/internal/analysis/compilerfact"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/pragma"
)

var Analyzer = &analysis.Analyzer{
	Name: "devirt",
	Doc: "check that interface calls lexically inside //prio:noalloc and //prio:devirt " +
		"functions are devirtualized to a concrete target by the compiler, and that " +
		"//prio:devirt functions actually contain such a call",
	RunProgram:         run,
	NeedsCompilerFacts: true,
}

func run(pass *analysis.ProgramPass) error {
	cf := pass.Compiler
	if cf == nil {
		return fmt.Errorf("devirt: no compiler facts attached (driver must run the toolchain first)")
	}
	for _, pkg := range pass.Pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				hasNoalloc := pragma.Has(fd.Doc, "prio:noalloc")
				hasDevirt := pragma.Has(fd.Doc, "prio:devirt")
				if !hasNoalloc && !hasDevirt {
					continue
				}
				// Diagnostics name the pragma that put the body in scope;
				// with both, noalloc is the stronger contract.
				tag := "//prio:noalloc"
				if !hasNoalloc {
					tag = "//prio:devirt"
				}
				declPos := pkg.Fset.Position(fd.Pos())
				if _, compiled := cf.Decisions[compilerfact.FileLine{File: declPos.Filename, Line: declPos.Line}]; !compiled {
					// bce/escapecheck already report unproved annotated
					// functions; without compiler output there is nothing
					// to judge interface calls against.
					continue
				}
				returnsError := declReturnsError(pkg.Info, fd)
				hotCalls := 0
				analysis.WithStack(fd.Body, func(nd ast.Node, stack []ast.Node) bool {
					call, ok := nd.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					selection := pkg.Info.Selections[sel]
					if selection == nil || selection.Kind() != types.MethodVal || !types.IsInterface(selection.Recv()) {
						return true
					}
					if noalloc.Cold(nd, stack, returnsError) {
						return true
					}
					hotCalls++
					start := pkg.Fset.Position(call.Pos())
					end := pkg.Fset.Position(call.End())
					if _, ok := cf.DevirtualizedAt(start.Filename, start.Line, start.Column, end.Line, end.Column); !ok {
						pass.Reportf(call.Lparen,
							"interface call %s.%s inside %s function %s is not devirtualized by the compiler (indirect dispatch on the zero-allocation path)",
							types.ExprString(sel.X), sel.Sel.Name, tag, fd.Name.Name)
					}
					return true
				})
				if hasDevirt && hotCalls == 0 {
					pass.Reportf(fd.Name.Pos(),
						"function %s is annotated //prio:devirt but contains no non-cold interface call for the compiler to devirtualize (the seam the pragma documents is gone)",
						fd.Name.Name)
				}
			}
		}
	}
	return nil
}

func declReturnsError(info *types.Info, fd *ast.FuncDecl) bool {
	fn, ok := info.Defs[fd.Name].(*types.Func)
	if !ok {
		return false
	}
	results := fn.Type().(*types.Signature).Results()
	if results.Len() == 0 {
		return false
	}
	named, ok := results.At(results.Len() - 1).Type().(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}
