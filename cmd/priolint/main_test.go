package main

import (
	"encoding/json"
	"go/ast"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/analysis/load"
	"repro/internal/analysis/pragma"
)

// TestDriverFindsViolations runs the real driver (go list, export data,
// type-checking and all) over the bad fixture package and checks the
// exit code and diagnostics.
func TestDriverFindsViolations(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"./testdata/src/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{
		"errpropagation: error result of os.Remove is dropped",
		"purity: Stamp is annotated //prio:pure but reads the clock (time.Now)",
		"testdata/src/bad/bad.go:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestDriverCleanPackage: the analysis framework itself must be clean.
func TestDriverCleanPackage(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"repro/internal/analysis/..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("unexpected output:\n%s", stdout.String())
	}
}

// TestDriverPureCross: a //prio:pure entry point that is clean in
// isolation but reaches a clock read one package down must be reported
// with the whole chain — the facts mechanism crossing a package
// boundary through the real driver, not just analysistest.
func TestDriverPureCross(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"./testdata/src/purecross/..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	want := "purity: Evaluate is annotated //prio:pure but calls inner.Stamp, which reads the clock (time.Now) at inner.go:"
	if !strings.Contains(out, want) {
		t.Errorf("output missing %q:\n%s", want, out)
	}
	if strings.Contains(out, "Stamp is annotated") || strings.Contains(out, "Clean is annotated") {
		t.Errorf("unexpected diagnostics (Stamp is unannotated, Clean is pure):\n%s", out)
	}
}

// TestDriverFormatJSON checks the machine-readable output CI archives:
// every finding carries file/line/col/analyzer/message, and the text
// and json runs agree on the finding count.
func TestDriverFormatJSON(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-format", "json", "./testdata/src/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var findings []finding
	if err := json.Unmarshal([]byte(stdout.String()), &findings); err != nil {
		t.Fatalf("output is not a JSON findings array: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("json run reported no findings")
	}
	analyzers := make(map[string]bool)
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Col == 0 || f.Analyzer == "" || f.Message == "" {
			t.Errorf("finding with empty field: %+v", f)
		}
		analyzers[f.Analyzer] = true
	}
	if !analyzers["errpropagation"] || !analyzers["purity"] {
		t.Errorf("expected errpropagation and purity findings, got %v", analyzers)
	}

	var text strings.Builder
	if code := run([]string{"./testdata/src/bad"}, &text, &stderr); code != 1 {
		t.Fatalf("text run exit code = %d, want 1", code)
	}
	if lines := strings.Count(strings.TrimSpace(text.String()), "\n") + 1; lines != len(findings) {
		t.Errorf("text run has %d findings, json run has %d", lines, len(findings))
	}

	stdout.Reset()
	if code := run([]string{"-format", "json", "./testdata/src/nestedlockclean"}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean json run exit code = %d, want 0", code)
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("clean json run = %q, want []", got)
	}
}

// TestDriverDeterministic: two identical runs over packages with
// findings from several analyzers (including the interprocedural ones)
// must produce byte-identical output — the property that makes the
// lint gate diffable in CI.
func TestDriverDeterministic(t *testing.T) {
	for _, format := range []string{"text", "json"} {
		var first string
		for i := 0; i < 2; i++ {
			var stdout, stderr strings.Builder
			code := run([]string{"-format", format, "./testdata/src/..."}, &stdout, &stderr)
			if code != 1 {
				t.Fatalf("%s run %d: exit code = %d, want 1\nstderr:\n%s", format, i, code, stderr.String())
			}
			if i == 0 {
				first = stdout.String()
			} else if stdout.String() != first {
				t.Errorf("%s output differs between identical runs:\n--- first\n%s--- second\n%s", format, first, stdout.String())
			}
		}
	}
}

// TestDriverInjectMarker pins the sed targets of CI's injection steps:
// if a marker line disappears from its fixture, the CI step would
// silently inject nothing and the anti-vacuousness guard would stop
// guarding.
func TestDriverInjectMarker(t *testing.T) {
	for file, marker := range map[string]string{
		"testdata/src/bceclean/bceclean.go":               "// INJECT: unprovable index goes here",
		"testdata/src/nestedlockclean/nestedlockclean.go": "// INJECT: opposite lock order goes here",
	} {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(src), marker) {
			t.Errorf("%s lost its %q marker (ci.yml seds it)", file, marker)
		}
	}
}

// TestAnalyzersDocumented mirrors the serving layer's
// TestRoutesDocumented: every analyzer registered in the suite must
// have an "(analyzer <name>)" section in internal/analysis/doc.go, so
// the suite and its documentation cannot drift apart.
func TestAnalyzersDocumented(t *testing.T) {
	doc, err := os.ReadFile("../../internal/analysis/doc.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range suite {
		if !strings.Contains(string(doc), "(analyzer "+a.Name+")") {
			t.Errorf("analyzer %s is registered in the suite but has no \"(analyzer %s)\" section in internal/analysis/doc.go", a.Name, a.Name)
		}
	}
}

// TestContractCensus keeps every analyzer in the suite bound to real
// code. An analyzer that matches nothing passes exactly like one that
// proves something, so over the module's non-test files (testdata
// excluded):
//
//	(a) every pragma in pragma.Known annotates at least one function,
//	    and its enforcer is registered;
//	(b) the sites the documentation names carry their pragmas;
//	(c) every analyzer that enforces no pragma is listed in scopes
//	    below, and the tree holds at least one instance of the code
//	    shape it polices.
//
// A new analyzer with no binding site, or a pragma that loses its last
// site, fails here.
func TestContractCensus(t *testing.T) {
	pkgs, err := load.Load("", "repro/...")
	if err != nil {
		t.Fatal(err)
	}
	sites := make(map[string][]string) // pragma -> annotated functions
	var locks, errCalls, pragmas int
	seen := make(map[string]bool)
	for _, pkg := range pkgs {
		info := pkg.Info
		for _, file := range pkg.Syntax {
			name := pkg.Fset.Position(file.Package).Filename
			if strings.HasSuffix(name, "_test.go") || seen[name] {
				continue
			}
			seen[name] = true
			ast.Inspect(file, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					for _, p := range pragma.Of(n.Doc) {
						pragmas++
						sites[p] = append(sites[p], info.Defs[n.Name].(*types.Func).FullName())
					}
				case *ast.CallExpr:
					fn := analysis.Callee(info, n)
					if fn == nil || fn.Pkg() == nil {
						break
					}
					path, sig := fn.Pkg().Path(), fn.Type().(*types.Signature)
					if path == "sync" && (fn.Name() == "Lock" || fn.Name() == "RLock") {
						locks++
					}
					if r := sig.Results(); r.Len() > 0 && r.At(r.Len()-1).Type().String() == "error" &&
						(path == "repro/internal/dagman" || path == "os" ||
							fn.Name() == "Close" || fn.Name() == "Flush" || fn.Name() == "Sync") {
						errCalls++
					}
				}
				return true
			})
		}
	}
	// (a)
	registered := make(map[string]bool, len(suite))
	for _, a := range suite {
		registered[a.Name] = true
	}
	known := make([]string, 0, len(pragma.Known))
	enforcers := make(map[string]bool)
	for p, analyzer := range pragma.Known {
		known = append(known, p)
		enforcers[analyzer] = true
	}
	sort.Strings(known)
	for _, p := range known {
		analyzer := pragma.Known[p]
		t.Logf("%-16s //%s on %d function(s)", analyzer, p, len(sites[p]))
		if len(sites[p]) == 0 {
			t.Errorf("//%s annotates no non-test function: the %s analyzer guards nothing", p, analyzer)
		}
		if !registered[analyzer] {
			t.Errorf("//%s is enforced by %s, which is not registered in the suite", p, analyzer)
		}
	}
	// (b)
	for _, doc := range []struct{ pragma, site string }{
		{"prio:pure", "repro/internal/core.Prioritize"},
	} {
		found := false
		for _, s := range sites[doc.pragma] {
			found = found || s == doc.site
		}
		if !found {
			t.Errorf("the docs name %s as a //%s site, but it does not carry the pragma", doc.site, doc.pragma)
		}
	}
	// (c)
	scopes := map[string]struct {
		what string
		n    int
	}{
		"errpropagation": {"error-returning calls into dagman, os, or Close/Flush/Sync", errCalls},
		"nestedlock":     {"mutex acquisitions", locks},
		"pragmacheck":    {"//prio: pragmas", pragmas},
	}
	for _, a := range suite {
		if enforcers[a.Name] {
			continue
		}
		sc, ok := scopes[a.Name]
		if !ok {
			t.Errorf("analyzer %s enforces no pragma in pragma.Known and has no scope in TestContractCensus: nothing shows it guards real code", a.Name)
			continue
		}
		t.Logf("%-16s %d %s", a.Name, sc.n, sc.what)
		if sc.n == 0 {
			t.Errorf("analyzer %s polices %s, and the tree has none: it guards nothing", a.Name, sc.what)
		}
	}
}

// TestDriverOnlyFilter restricts the suite and rejects unknown names.
func TestDriverOnlyFilter(t *testing.T) {
	var stdout, stderr strings.Builder
	code := run([]string{"-only", "errpropagation", "./testdata/src/bad"}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	if out := stdout.String(); strings.Contains(out, "purity") || !strings.Contains(out, "errpropagation") {
		t.Errorf("-only errpropagation output wrong:\n%s", out)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-only", "nosuch", "./testdata/src/bad"}, &stdout, &stderr); code != 2 {
		t.Fatalf("unknown analyzer: exit code = %d, want 2", code)
	}
}
