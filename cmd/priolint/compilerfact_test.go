package main

import (
	"encoding/json"
	"go/ast"
	"strings"
	"testing"

	"repro/internal/analysis/bce"
	"repro/internal/analysis/compilerfact"
	"repro/internal/analysis/facts"
	"repro/internal/analysis/inline"
	"repro/internal/analysis/load"
	"repro/internal/analysis/pragma"
)

// TestDriverExitCodes pins the CLI contract scripts depend on: 0 for a
// clean tree, 1 when any analyzer reports a finding, 2 for usage and
// load errors. A load failure must not masquerade as a clean run.
func TestDriverExitCodes(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"./testdata/src/bceclean"}, &stdout, &stderr); code != 0 {
		t.Errorf("clean package: exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./testdata/src/bad"}, &stdout, &stderr); code != 1 {
		t.Errorf("findings: exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./testdata/src/nosuchpackage"}, &stdout, &stderr); code != 2 {
		t.Errorf("load error: exit code = %d, want 2\nstdout:\n%s", code, stdout.String())
	} else if !strings.Contains(stderr.String(), "priolint:") {
		t.Errorf("load error: stderr missing priolint prefix:\n%s", stderr.String())
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-format", "yaml", "./testdata/src/bad"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad format: exit code = %d, want 2", code)
	}
}

// TestCompilerFactCensus: every //prio:nobce and //prio:inline site in
// the kernel packages must be covered by a compiler-fact proof — the
// compiler emits exactly one inline decision per compiled function, so
// FuncFacts.Compiled doubles as the receipt that the annotated file was
// part of the instrumented build. An annotation the build never saw is
// a contract nobody is enforcing.
func TestCompilerFactCensus(t *testing.T) {
	pkgs, err := load.Load("", "repro/internal/sim", "repro/internal/bitset")
	if err != nil {
		t.Fatal(err)
	}
	nonMains, mains := compileDirs(pkgs)
	cf, err := compilerfact.Run("", nonMains, mains)
	if err != nil {
		t.Fatal(err)
	}
	set := new(facts.Set)
	cf.AttachFuncFacts(pkgs, set)

	sites := 0
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				if !pragma.Has(fd.Doc, bce.Annotation) && !pragma.Has(fd.Doc, inline.Annotation) {
					continue
				}
				sites++
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					t.Errorf("%s: annotated function %s has no definition object", pkg.ImportPath, fd.Name.Name)
					continue
				}
				ff := new(compilerfact.FuncFacts)
				if !set.ImportObjectFact(obj, ff) || !ff.Compiled {
					pos := pkg.Fset.Position(fd.Name.Pos())
					t.Errorf("%s:%d: %s is annotated but the compiler-fact build emitted no record for it — the contract is unproved", pos.Filename, pos.Line, fd.Name.Name)
				}
			}
		}
	}
	if sites < 8 {
		t.Errorf("census found only %d annotated sites in internal/sim and internal/bitset — the kernel annotations have been lost", sites)
	}
}

// TestCompilerFactJSONDeterministic: the compiler-fact analyzers must
// produce byte-identical -format json output across identical runs —
// their findings come from parsed build output, and any nondeterminism
// there (map iteration over facts, unsorted positions) would make the
// lint gate undiffable. The fixture dirs are the analyzers' own
// analysistest packages, which carry known violations for all three.
func TestCompilerFactJSONDeterministic(t *testing.T) {
	args := []string{
		"-format", "json",
		"-only", "bce,inline,pragmacheck",
		"../../internal/analysis/bce/testdata/src/a",
		"../../internal/analysis/inline/testdata/src/a",
		"../../internal/analysis/pragmacheck/testdata/src/a",
	}
	var first string
	for i := 0; i < 2; i++ {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 1 {
			t.Fatalf("run %d: exit code = %d, want 1\nstderr:\n%s", i, code, stderr.String())
		}
		if i == 0 {
			first = stdout.String()
		} else if stdout.String() != first {
			t.Fatalf("json output differs between identical runs:\n--- first\n%s--- second\n%s", first, stdout.String())
		}
	}

	var findings []finding
	if err := json.Unmarshal([]byte(first), &findings); err != nil {
		t.Fatalf("output is not a JSON findings array: %v", err)
	}
	seen := make(map[string]bool)
	for _, f := range findings {
		seen[f.Analyzer] = true
	}
	for _, want := range []string{"bce", "inline", "pragmacheck"} {
		if !seen[want] {
			t.Errorf("no %s finding over its own violation fixture (got %v)", want, seen)
		}
	}
}
