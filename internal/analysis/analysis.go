package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/compilerfact"
	"repro/internal/analysis/facts"
	"repro/internal/analysis/load"
)

// An Analyzer is one static check. Name appears in diagnostics and in
// the -only flag of cmd/priolint; Doc is the one-paragraph contract
// shown by `priolint -help`.
//
// An analyzer runs in exactly one of two modes. A package analyzer
// sets Run and is handed one type-checked package at a time, in
// dependency order, sharing a fact set with every other pass of the
// driver run (purity propagates its summaries this way). A program
// analyzer sets RunProgram instead and is handed every loaded package
// at once together with the whole-program call graph (nestedlock
// needs cross-package lock ordering, not per-package facts).
type Analyzer struct {
	Name       string
	Doc        string
	Run        func(*Pass) (interface{}, error)
	RunProgram func(*ProgramPass) error
	// NeedsCompilerFacts asks the driver to run the toolchain with
	// diagnostic flags (see subpackage compilerfact) before this
	// analyzer and attach the parsed index to ProgramPass.Compiler.
	// The driver runs the compiler at most once per invocation no
	// matter how many analyzers declare the need.
	NeedsCompilerFacts bool
}

// A Pass hands one type-checked package to an analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	Report    func(Diagnostic)
	// Facts is the fact store shared across the driver run. The driver
	// analyzes packages in dependency order, so facts exported while
	// analyzing a dependency are visible here. Nil when the analyzer
	// declares no interest (legacy analyzers ignore it).
	Facts *facts.Set
}

// A ProgramPass hands the whole loaded program to a program analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Pkgs are the loaded packages in dependency order.
	Pkgs []*load.Package
	// Graph is the whole-program call graph over Pkgs.
	Graph  *callgraph.Graph
	Facts  *facts.Set
	Report func(Diagnostic)
	// Compiler is the toolchain's diagnostic index for the loaded
	// packages, populated by the driver when the analyzer sets
	// NeedsCompilerFacts (nil otherwise — analyzers must treat a nil
	// index as an error, not as a clean program).
	Compiler *compilerfact.Facts
}

// Reportf reports a formatted diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding, anchored to a position. Path, when
// non-empty, is the call chain justifying an interprocedural finding
// (outermost first); the driver renders it in text output and carries
// it structurally in -format json.
type Diagnostic struct {
	Pos     token.Pos
	Message string
	Path    []string
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ObjectOf resolves an identifier to its object (definition or use).
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if obj := p.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return p.TypesInfo.Uses[id]
}

// Callee resolves the called object of a call expression: the
// *types.Func for a static call or method call, or nil for calls
// through function values, type conversions, and builtins.
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}
