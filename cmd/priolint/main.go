// Command priolint runs the repository's invariant analyzers (see
// repro/internal/analysis) over a set of packages, `go vet`-style.
//
// Usage:
//
//	priolint [-only a,b] [-format text|json] [-debug-callgraph] [packages]
//
// With no package arguments it analyzes ./... . Test files are included.
// The exit code is 0 when the tree is clean, 1 when any diagnostic was
// reported, and 2 on usage or load errors.
//
// The suite has two kinds of analyzers. Package analyzers run once per
// package, in dependency order, sharing a fact store — purity exports
// an Impure fact for every effectful function it sees, so a violation
// deep in a dependency surfaces at the annotated entry point with the
// whole call chain. Program analyzers (noalloc, nestedlock, goroleak,
// ctxflow, chanbound, respdet, bce, inline) run once over all loaded
// packages together with the whole-program call graph. The analyzers
// that consume compiler facts (bce, inline) share a single
// instrumented `go build` of the loaded tree — the compiler runs at
// most once per priolint invocation.
// Interface calls resolve only to implementations loaded from source,
// so run the tool over ./... (the default) for the contracts to be
// proved rather than spot-checked.
//
// -format json emits the findings as a JSON array of
// {file, line, col, analyzer, message, path} objects, where path is
// the call chain justifying an interprocedural finding (empty
// otherwise). -debug-callgraph dumps every call edge before analysis.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/bce"
	"repro/internal/analysis/callgraph"
	"repro/internal/analysis/chanbound"
	"repro/internal/analysis/compilerfact"
	"repro/internal/analysis/ctxflow"
	"repro/internal/analysis/errpropagation"
	"repro/internal/analysis/facts"
	"repro/internal/analysis/goroleak"
	"repro/internal/analysis/inline"
	"repro/internal/analysis/load"
	"repro/internal/analysis/lockedfield"
	"repro/internal/analysis/mapiterorder"
	"repro/internal/analysis/nestedlock"
	"repro/internal/analysis/noalloc"
	"repro/internal/analysis/pragmacheck"
	"repro/internal/analysis/purity"
	"repro/internal/analysis/respdet"
	"repro/internal/analysis/rngsource"
)

// suite is every analyzer priolint knows, in reporting order.
var suite = []*analysis.Analyzer{
	bce.Analyzer,
	chanbound.Analyzer,
	ctxflow.Analyzer,
	errpropagation.Analyzer,
	goroleak.Analyzer,
	inline.Analyzer,
	lockedfield.Analyzer,
	mapiterorder.Analyzer,
	nestedlock.Analyzer,
	noalloc.Analyzer,
	pragmacheck.Analyzer,
	purity.Analyzer,
	respdet.Analyzer,
	rngsource.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// finding is one diagnostic, in the shape -format json emits.
type finding struct {
	File     string   `json:"file"`
	Line     int      `json:"line"`
	Col      int      `json:"col"`
	Analyzer string   `json:"analyzer"`
	Message  string   `json:"message"`
	Path     []string `json:"path,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("priolint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated subset of analyzers to run")
	format := fs.String("format", "text", "output format: text or json")
	debugCG := fs.Bool("debug-callgraph", false, "dump every call-graph edge before analyzing")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: priolint [-only a,b] [-format text|json] [-debug-callgraph] [packages]")
		fmt.Fprintln(stderr, "analyzers:")
		for _, a := range suite {
			fmt.Fprintf(stderr, "  %-16s %s\n", a.Name, a.Doc)
		}
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "priolint: unknown format %q (want text or json)\n", *format)
		return 2
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "priolint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	// Load returns the packages in stable dependency order; package
	// passes rely on it for fact propagation, and it makes the whole
	// run's output independent of pattern order.
	pkgs, err := load.Load("", patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "priolint:", err)
		return 2
	}

	var pkgAnalyzers, progAnalyzers []*analysis.Analyzer
	for _, a := range analyzers {
		if a.RunProgram != nil {
			progAnalyzers = append(progAnalyzers, a)
		} else {
			pkgAnalyzers = append(pkgAnalyzers, a)
		}
	}

	var graph *callgraph.Graph
	if len(progAnalyzers) > 0 || *debugCG {
		graph = callgraph.Build(pkgs)
	}

	// Compiler facts are computed at most once per invocation and shared
	// by every analyzer that asks for them: one `go build -gcflags=-m=2
	// -d=ssa/check_bce` over the loaded tree, not one per analyzer.
	var compiler *compilerfact.Facts
	needCompiler := false
	for _, a := range progAnalyzers {
		if a.NeedsCompilerFacts {
			needCompiler = true
		}
	}
	if needCompiler && len(pkgs) > 0 {
		nonMains, mains := compileDirs(pkgs)
		cf, err := compilerfact.Run("", nonMains, mains)
		if err != nil {
			fmt.Fprintln(stderr, "priolint:", err)
			return 2
		}
		compiler = cf
	}
	if *debugCG && len(pkgs) > 0 {
		for _, line := range graph.DebugDump(pkgs[0].Fset) {
			fmt.Fprintln(stdout, line)
		}
	}

	factSet := new(facts.Set)
	if compiler != nil {
		compiler.AttachFuncFacts(pkgs, factSet)
	}
	seen := make(map[string]bool)
	var findings []finding

	for _, pkg := range pkgs {
		for _, a := range pkgAnalyzers {
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Syntax,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
				Facts:     factSet,
				Report:    reporter(pkg.Fset.Position, a.Name, seen, &findings),
			}
			if _, err := a.Run(pass); err != nil {
				fmt.Fprintf(stderr, "priolint: %s on %s: %v\n", a.Name, pkg.ImportPath, err)
				return 2
			}
		}
	}
	for _, a := range progAnalyzers {
		if len(pkgs) == 0 {
			break
		}
		pp := &analysis.ProgramPass{
			Analyzer: a,
			Fset:     pkgs[0].Fset,
			Pkgs:     pkgs,
			Graph:    graph,
			Facts:    factSet,
			Compiler: compiler,
			Report:   reporter(pkgs[0].Fset.Position, a.Name, seen, &findings),
		}
		if err := a.RunProgram(pp); err != nil {
			fmt.Fprintf(stderr, "priolint: %s: %v\n", a.Name, err)
			return 2
		}
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	switch *format {
	case "json":
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if findings == nil {
			findings = []finding{} // emit [], not null
		}
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(stderr, "priolint:", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintf(stdout, "%s:%d:%d: %s: %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "priolint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// compileDirs maps the loaded packages to the directory lists the
// compiler-fact build takes, split into non-mains and mains (a main
// build needs -o pointed at scratch space). Directories are passed
// instead of import paths because the loader's test variants
// ("p [p.test]", "p_test") share the base package's directory — the
// dedup collapses them to one compile of the non-test sources. A dir
// counts as a main if any package in it is one.
func compileDirs(pkgs []*load.Package) (nonMains, mains []string) {
	isMain := make(map[string]bool)
	for _, pkg := range pkgs {
		if pkg.Dir != "" && pkg.Types.Name() == "main" {
			isMain[pkg.Dir] = true
		}
	}
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		if pkg.Dir == "" || seen[pkg.Dir] {
			continue
		}
		seen[pkg.Dir] = true
		if isMain[pkg.Dir] {
			mains = append(mains, pkg.Dir)
		} else {
			nonMains = append(nonMains, pkg.Dir)
		}
	}
	return nonMains, mains
}

// reporter builds a Report callback that records deduplicated findings
// (a package and its test variant share files; program analyzers may
// rediscover one site from several roots' shared subgraphs).
func reporter(position func(token.Pos) token.Position, name string, seen map[string]bool, findings *[]finding) func(analysis.Diagnostic) {
	return func(d analysis.Diagnostic) {
		pos := position(d.Pos)
		f := finding{
			File: relPath(pos.Filename), Line: pos.Line, Col: pos.Column,
			Analyzer: name, Message: d.Message, Path: d.Path,
		}
		key := fmt.Sprintf("%s:%d:%d:%s:%s", f.File, f.Line, f.Col, f.Analyzer, f.Message)
		if !seen[key] {
			seen[key] = true
			*findings = append(*findings, f)
		}
	}
}

func selectAnalyzers(only string) ([]*analysis.Analyzer, error) {
	if only == "" {
		return suite, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(suite))
	for _, a := range suite {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

func relPath(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		return path
	}
	rel, err := filepath.Rel(wd, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
