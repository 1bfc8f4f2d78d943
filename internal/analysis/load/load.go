// Package load turns `go list` output into type-checked packages for
// the analyzers, using only the standard library. It shells out to
//
//	go list -export -deps -test -json <patterns>
//
// which compiles every dependency and reports its export-data file,
// then parses each target package from source and type-checks it with
// an importer that reads dependencies from that export data. This is
// the same architecture as a `go vet` driver: only the packages under
// analysis are parsed, everything else is consumed in compiled form, so
// loading stays fast and works without network access.
//
// Test files are analyzed too: with -test, `go list` emits a variant
// package per tested package (ImportPath "p [p.test]") whose file list
// includes the in-package _test.go files, plus an external test package
// ("p_test [p.test]") when one exists. When a variant is present the
// plain package is skipped, since the variant's file set is a superset.
package load

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package ready for analysis.
type Package struct {
	// ImportPath is the clean import path (variant brackets stripped).
	ImportPath string
	// Dir is the package directory.
	Dir string
	// GoFiles are the absolute paths of the parsed files. For test
	// variants this includes the _test.go files.
	GoFiles []string
	Fset    *token.FileSet
	Syntax  []*ast.File
	Types   *types.Package
	Info    *types.Info
}

// listPkg is the subset of `go list -json` output the loader needs.
type listPkg struct {
	ImportPath string
	Name       string
	Dir        string
	Export     string
	Standard   bool
	DepOnly    bool
	ForTest    string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Load lists, parses, and type-checks the packages matching patterns
// (run in dir; empty dir means the current directory).
func Load(dir string, patterns ...string) ([]*Package, error) {
	metas, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	exports := make(map[string]string, len(metas))
	for _, m := range metas {
		if m.Export != "" {
			exports[m.ImportPath] = m.Export
		}
	}

	// Prefer "p [p.test]" over "p": same files plus the tests.
	hasVariant := make(map[string]bool)
	for _, m := range metas {
		if m.ForTest != "" && strings.HasPrefix(m.ImportPath, m.ForTest+" [") {
			hasVariant[m.ForTest] = true
		}
	}

	fset := token.NewFileSet()
	imp := newExportImporter(fset, exports)
	var out []*Package
	imports := make(map[string][]string) // clean path -> clean direct imports
	for _, m := range metas {
		switch {
		case m.Standard || m.DepOnly:
			continue
		case strings.HasSuffix(m.ImportPath, ".test"):
			continue // the generated test main package
		case m.ForTest == "" && hasVariant[m.ImportPath]:
			continue
		case len(m.CgoFiles) > 0:
			return nil, fmt.Errorf("load: %s uses cgo, which this driver does not support", m.ImportPath)
		}
		if m.Error != nil {
			return nil, fmt.Errorf("load: %s: %s", m.ImportPath, m.Error.Err)
		}
		pkg, err := check(fset, imp, m)
		if err != nil {
			return nil, err
		}
		for _, dep := range m.Imports {
			imports[pkg.ImportPath] = append(imports[pkg.ImportPath], cleanPath(dep))
		}
		out = append(out, pkg)
	}
	sortTopological(out, imports)
	return out, nil
}

// cleanPath strips a test-variant suffix: "p [p.test]" -> "p".
func cleanPath(path string) string {
	if i := strings.IndexByte(path, ' '); i >= 0 {
		return path[:i]
	}
	return path
}

// sortTopological orders pkgs so every package comes after the loaded
// packages it imports, breaking ties lexicographically by import path —
// a stable order independent of go list's pattern traversal, which the
// driver relies on to propagate facts in dependency order and to emit
// byte-identical diagnostics across runs. A dependency cycle (possible
// only through test variants) leaves the packages involved in
// lexicographic order rather than failing.
func sortTopological(pkgs []*Package, imports map[string][]string) {
	loaded := make(map[string]*Package, len(pkgs))
	for _, p := range pkgs {
		loaded[p.ImportPath] = p
	}
	indeg := make(map[string]int, len(pkgs))
	dependents := make(map[string][]string)
	for _, p := range pkgs {
		indeg[p.ImportPath] += 0
		for _, dep := range imports[p.ImportPath] {
			if dep == p.ImportPath || loaded[dep] == nil {
				continue
			}
			dependents[dep] = append(dependents[dep], p.ImportPath)
			indeg[p.ImportPath]++
		}
	}
	var ready []string
	for _, p := range pkgs {
		if indeg[p.ImportPath] == 0 {
			ready = append(ready, p.ImportPath)
		}
	}
	var order []string
	for len(ready) > 0 {
		sort.Strings(ready)
		next := ready[0]
		ready = ready[1:]
		order = append(order, next)
		for _, dep := range dependents[next] {
			indeg[dep]--
			if indeg[dep] == 0 {
				ready = append(ready, dep)
			}
		}
	}
	if len(order) < len(pkgs) { // cycle: append the rest deterministically
		inOrder := make(map[string]bool, len(order))
		for _, p := range order {
			inOrder[p] = true
		}
		var rest []string
		for _, p := range pkgs {
			if !inOrder[p.ImportPath] {
				rest = append(rest, p.ImportPath)
			}
		}
		sort.Strings(rest)
		order = append(order, rest...)
	}
	for i, path := range order {
		pkgs[i] = loaded[path]
	}
}

// goList runs `go list -export -deps -test -json` and decodes the
// stream of package objects.
func goList(dir string, patterns []string) ([]*listPkg, error) {
	args := append([]string{"list", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("load: starting go list: %w", err)
	}
	var metas []*listPkg
	dec := json.NewDecoder(stdout)
	for {
		m := new(listPkg)
		if err := dec.Decode(m); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("load: decoding go list output: %w", err)
		}
		metas = append(metas, m)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load: go list %s: %w", strings.Join(patterns, " "), err)
	}
	return metas, nil
}

// check parses and type-checks one listed package.
func check(fset *token.FileSet, imp *exportImporter, m *listPkg) (*Package, error) {
	files := make([]*ast.File, 0, len(m.GoFiles))
	paths := make([]string, 0, len(m.GoFiles))
	for _, name := range m.GoFiles {
		path := name
		if !filepath.IsAbs(path) {
			path = filepath.Join(m.Dir, name)
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
		paths = append(paths, path)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	importPath := m.ImportPath
	if i := strings.IndexByte(importPath, ' '); i >= 0 {
		importPath = importPath[:i] // "p [p.test]" -> "p"
	}
	conf := types.Config{Importer: &mappedImporter{imp: imp, importMap: m.ImportMap}}
	tpkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("load: type-checking %s: %w", m.ImportPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        m.Dir,
		GoFiles:    paths,
		Fset:       fset,
		Syntax:     files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// ExportImporterFor returns an importer that resolves exactly the
// given import paths (and, transitively, their dependencies) through
// `go list -export`. The analysistest harness uses it to type-check
// testdata packages, whose files are outside any listable package.
func ExportImporterFor(fset *token.FileSet, imports map[string]bool) (types.Importer, error) {
	paths := make([]string, 0, len(imports))
	for p := range imports {
		paths = append(paths, p)
	}
	sort.Strings(paths) // deterministic subprocess invocation
	exports := make(map[string]string)
	if len(paths) > 0 {
		args := append([]string{"list", "-export", "-deps", "-json"}, paths...)
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("load: go list %s: %w", strings.Join(paths, " "), err)
		}
		dec := json.NewDecoder(strings.NewReader(string(out)))
		for {
			m := new(listPkg)
			if err := dec.Decode(m); err == io.EOF {
				break
			} else if err != nil {
				return nil, fmt.Errorf("load: decoding go list output: %w", err)
			}
			if m.Export != "" {
				exports[m.ImportPath] = m.Export
			}
		}
	}
	return newExportImporter(fset, exports), nil
}

// exportImporter reads type information from compiler export data, via
// the gc importer in lookup mode. It is shared across packages so each
// dependency is decoded once.
type exportImporter struct {
	imp     types.Importer
	exports map[string]string // import path (possibly a test variant) -> export file
}

func newExportImporter(fset *token.FileSet, exports map[string]string) *exportImporter {
	ei := &exportImporter{exports: exports}
	ei.imp = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := ei.exports[path]
		if !ok {
			return nil, fmt.Errorf("load: no export data for %q", path)
		}
		return os.Open(file)
	})
	return ei
}

func (ei *exportImporter) Import(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	return ei.imp.Import(path)
}

// mappedImporter applies one package's ImportMap (which resolves
// source-level import paths to test-variant packages) before delegating
// to the shared export importer.
type mappedImporter struct {
	imp       *exportImporter
	importMap map[string]string
}

func (mi *mappedImporter) Import(path string) (*types.Package, error) {
	if mapped, ok := mi.importMap[path]; ok {
		path = mapped
	}
	return mi.imp.Import(path)
}
