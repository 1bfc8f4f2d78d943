// Package compilerfact turns the Go compiler's own optimization
// diagnostics into analyzable facts. It invokes the toolchain with
//
//	go build -gcflags='-m=2 -d=ssa/check_bce' <packages>
//
// and parses the position-keyed notes the compiler prints on stderr —
// inline decisions with their cost budgets, inlined call sites, and
// bounds-check sites — into an in-memory index plus per-function
// summaries in the driver's fact store. Every other note (escape
// decisions, devirtualization, elided checks) is skipped.
//
// The abstract analyzers (noalloc, purity, ...) prove properties by
// their own reading of the source; nothing stops the compiler from
// disagreeing — a refactor can reintroduce a bounds check or break an
// inlining decision without changing any property the source-level
// provers model. The analyzers built on this package (bce, inline)
// close that gap: they check the machine's verdict, not a model of it.
//
// # Invocation and caching
//
// Diagnostics are a function of the compiled package, so the build
// cache replays them: a second run over an unchanged package re-prints
// the same notes without recompiling, which keeps repeated lint runs
// cheap. One Run call compiles every requested package in at most two
// `go build` invocations (main packages need -o pointed at a scratch
// directory so no binary lands in the working tree; a build of only
// non-main packages rejects -o, so they go in a plain invocation that
// discards its objects).
//
// # Positions
//
// Every diagnostic carries a file:line:col position. The go command
// prints the path relative to its working directory, frozen into the
// cache entry at compile time — so Run always invokes the toolchain at
// the module root and normalizes the paths to absolute, comparable
// with token.FileSet positions from the loader.
// Bounds-check notes attributed to an inlined call land on
// the caller's call-site line, so a function's fact set covers the
// code the compiler actually emitted for it — including inlined callee
// bodies — not just its source text.
//
// Per-function inline decisions ("can inline F with cost N" / "cannot
// inline F: ...") are keyed by the function's declaration line. The
// compiler emits exactly one such decision for every function it
// compiles, which doubles as the proof that a file was not silently
// dropped from the build (see AttachFuncFacts and the census test).
package compilerfact

import (
	"bytes"
	"fmt"
	"go/ast"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/analysis/facts"
	"repro/internal/analysis/load"
)

// GCFlags is the exact -gcflags value handed to the compiler.
const GCFlags = "-m=2 -d=ssa/check_bce"

// A Pos is one normalized diagnostic position (absolute file path).
type Pos struct {
	File string
	Line int
	Col  int
}

func (p Pos) String() string { return fmt.Sprintf("%s:%d:%d", p.File, p.Line, p.Col) }

// A FileLine keys per-function facts: the declaration line of the
// function the compiler reported on.
type FileLine struct {
	File string
	Line int
}

// An InlineDecision is the compiler's verdict on one function.
type InlineDecision struct {
	Name      string // the compiler's spelling, e.g. "(*MinSet).Add"
	CanInline bool
	Cost      int    // inline cost when CanInline; the reported excess cost otherwise (0 if none given)
	Reason    string // refusal reason when !CanInline, e.g. "function too complex: cost 99 exceeds budget 80"
	Pos       Pos
}

// Facts is the parsed diagnostic index of one Run.
type Facts struct {
	// Bounds holds the positions of every "Found IsInBounds" /
	// "Found IsSliceInBounds" note, per absolute file path, sorted by
	// line then column, deduplicated (the compiler re-reports a check
	// once per inlined copy of its function).
	Bounds map[string][]Pos
	// Decisions maps a function declaration line to the compiler's
	// inline verdict for it.
	Decisions map[FileLine]InlineDecision
	// InlinedCalls holds the call sites the compiler actually inlined
	// ("inlining call to F"), keyed by position, valued by the callee's
	// reported name.
	InlinedCalls map[Pos]string
	// Packages lists the import paths compiled, sorted.
	Packages []string
}

// FuncFacts is the compiler's per-function summary, attached to the
// function's *types.Func in the driver's fact store by AttachFuncFacts.
type FuncFacts struct {
	// Compiled records that the compiler emitted an inline decision for
	// the function — the proof that its file was part of the build.
	Compiled bool
	// BoundsChecks counts Found Is*InBounds sites inside the function's
	// body span (including checks inherited from inlined callees).
	BoundsChecks int
	CanInline    bool
	InlineCost   int
	CannotReason string
}

// AFact marks FuncFacts as a fact type.
func (*FuncFacts) AFact() {}

// Run compiles the given packages with diagnostic flags and parses the
// output. nonMains and mains are import paths, absolute package
// directories, or ./-relative directories (resolved against dir) with
// and without a main package — they need different invocations, see
// the package comment. dir anchors relative arguments and the module
// lookup; empty means the current directory.
func Run(dir string, nonMains, mains []string) (*Facts, error) {
	f := &Facts{
		Bounds:       make(map[string][]Pos),
		Decisions:    make(map[FileLine]InlineDecision),
		InlinedCalls: make(map[Pos]string),
	}
	// The go command prints diagnostic paths relative to its working
	// directory at the time of the actual compile — and the build cache
	// replays the recorded text verbatim, original paths included. Both
	// invocations therefore run at the module root, so the paths are
	// module-root-relative no matter where this process started or
	// which earlier Run populated the cache entry.
	absDir, err := moduleRoot(dir)
	if err != nil {
		return nil, err
	}
	nonMains, err = absolutize(dir, nonMains)
	if err != nil {
		return nil, err
	}
	mains, err = absolutize(dir, mains)
	if err != nil {
		return nil, err
	}
	if nonMains = cleanPaths(nonMains); len(nonMains) > 0 {
		args := append([]string{"build", "-gcflags=" + GCFlags}, nonMains...)
		if err := f.runAndParse(absDir, args); err != nil {
			return nil, err
		}
		f.Packages = append(f.Packages, nonMains...)
	}
	if mains = cleanPaths(mains); len(mains) > 0 {
		// A main package build writes a binary; point it at a scratch
		// directory so nothing lands in the tree.
		scratch, err := os.MkdirTemp("", "compilerfact-")
		if err != nil {
			return nil, fmt.Errorf("compilerfact: %w", err)
		}
		defer os.RemoveAll(scratch)
		args := append([]string{"build", "-o", scratch, "-gcflags=" + GCFlags}, mains...)
		if err := f.runAndParse(absDir, args); err != nil {
			return nil, err
		}
		f.Packages = append(f.Packages, mains...)
	}
	sort.Strings(f.Packages)
	for file := range f.Bounds {
		sortPositions(f.Bounds[file])
	}
	return f, nil
}

// moduleRoot locates the root of the module containing dir (empty
// means the current directory), falling back to dir itself outside
// module mode.
func moduleRoot(dir string) (string, error) {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("compilerfact: go env GOMOD: %w", err)
	}
	gomod := strings.TrimSpace(string(out))
	if gomod != "" && gomod != os.DevNull {
		return filepath.Dir(gomod), nil
	}
	if dir == "" {
		wd, err := os.Getwd()
		if err != nil {
			return "", fmt.Errorf("compilerfact: %w", err)
		}
		return wd, nil
	}
	return filepath.Abs(dir)
}

// cleanPaths strips test-variant suffixes ("p [p.test]" -> "p"),
// deduplicates, and sorts, so the toolchain invocation is stable.
func cleanPaths(paths []string) []string {
	seen := make(map[string]bool, len(paths))
	out := make([]string, 0, len(paths))
	for _, p := range paths {
		if i := strings.IndexByte(p, ' '); i >= 0 {
			p = p[:i]
		}
		if p == "" || seen[p] {
			continue
		}
		seen[p] = true
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// absolutize resolves directory arguments ("./x", "../x", ".")
// against base (empty means the current directory), leaving import
// paths and already-absolute directories alone — the invocation runs
// at the module root, where caller-relative arguments would otherwise
// resolve to the wrong directory.
func absolutize(base string, paths []string) ([]string, error) {
	out := make([]string, 0, len(paths))
	for _, p := range paths {
		if p == "." || p == ".." || strings.HasPrefix(p, "./") || strings.HasPrefix(p, "../") {
			abs, err := filepath.Abs(filepath.Join(base, p))
			if err != nil {
				return nil, fmt.Errorf("compilerfact: %w", err)
			}
			p = abs
		}
		out = append(out, p)
	}
	return out, nil
}

func (f *Facts) runAndParse(absDir string, args []string) error {
	cmd := exec.Command("go", args...)
	cmd.Dir = absDir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		msg := strings.TrimSpace(stderr.String())
		if len(msg) > 2048 {
			msg = msg[:2048] + " [...]"
		}
		return fmt.Errorf("compilerfact: go %s: %w\n%s", strings.Join(args[:2], " "), err, msg)
	}
	f.parse(absDir, stderr.String())
	return nil
}

var (
	posRe           = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*)$`)
	canInlineRe     = regexp.MustCompile(`^can inline (.+?) with cost (\d+) as: `)
	cannotInlineRe  = regexp.MustCompile(`^cannot inline (.+?): (.+)$`)
	costRe          = regexp.MustCompile(`cost (\d+) exceeds budget`)
	inlineCallRe    = regexp.MustCompile(`^inlining call to (.+)$`)
	canInlinePlain  = "can inline "
	foundBoundsMsgs = map[string]bool{"Found IsInBounds": true, "Found IsSliceInBounds": true}
)

// parse consumes one invocation's stderr. Unrecognized notes (escape
// decisions and flow traces, devirtualization, nil checks elided,
// leaking parameters) are skipped; package-group headers ("# path")
// and positions outside .go files ("<autogenerated>") are skipped too.
func (f *Facts) parse(absDir, out string) {
	boundsSeen := make(map[Pos]bool)
	for _, line := range strings.Split(out, "\n") {
		m := posRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file, msg := m[1], m[4]
		if strings.HasPrefix(msg, " ") {
			continue // indented escape-flow trace line
		}
		if !filepath.IsAbs(file) {
			file = filepath.Join(absDir, file)
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		pos := Pos{file, ln, col}
		switch {
		case foundBoundsMsgs[msg]:
			if !boundsSeen[pos] {
				boundsSeen[pos] = true
				f.Bounds[file] = append(f.Bounds[file], pos)
			}
		case strings.HasPrefix(msg, canInlinePlain):
			if cm := canInlineRe.FindStringSubmatch(msg); cm != nil {
				cost, _ := strconv.Atoi(cm[2])
				f.Decisions[FileLine{file, ln}] = InlineDecision{
					Name: cm[1], CanInline: true, Cost: cost, Pos: pos,
				}
			}
		case strings.HasPrefix(msg, "cannot inline "):
			if cm := cannotInlineRe.FindStringSubmatch(msg); cm != nil {
				d := InlineDecision{Name: cm[1], Reason: cm[2], Pos: pos}
				if costM := costRe.FindStringSubmatch(cm[2]); costM != nil {
					d.Cost, _ = strconv.Atoi(costM[1])
				}
				f.Decisions[FileLine{file, ln}] = d
			}
		case strings.HasPrefix(msg, "inlining call to "):
			if cm := inlineCallRe.FindStringSubmatch(msg); cm != nil {
				f.InlinedCalls[pos] = cm[1]
			}
		}
	}
}

func sortPositions(ps []Pos) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Line != ps[j].Line {
			return ps[i].Line < ps[j].Line
		}
		return ps[i].Col < ps[j].Col
	})
}

// BoundsIn returns the bounds-check sites inside the [start, end] span
// of file (line/col inclusive-exclusive on the end position).
func (f *Facts) BoundsIn(file string, startLine, startCol, endLine, endCol int) []Pos {
	var out []Pos
	for _, p := range f.Bounds[file] {
		if spanContains(startLine, startCol, endLine, endCol, p.Line, p.Col) {
			out = append(out, p)
		}
	}
	return out
}

// InlinedAt reports whether the compiler inlined a call at the given
// line of file (inline notes land on the call's opening parenthesis,
// which shares a line with the call expression in gofmt'ed source),
// and the callee name it reported.
func (f *Facts) InlinedAt(file string, line int) (string, bool) {
	for pos, callee := range f.InlinedCalls {
		if pos.File == file && pos.Line == line {
			return callee, true
		}
	}
	return "", false
}

// InlinedCallsOn returns the reported callee names of every call the
// compiler inlined on the given line of file. Distinct calls on one
// line have distinct columns, so a caller matching a specific callee
// must scan the whole slice, not stop at the first note.
func (f *Facts) InlinedCallsOn(file string, line int) []string {
	var out []string
	for pos, callee := range f.InlinedCalls {
		if pos.File == file && pos.Line == line {
			out = append(out, callee)
		}
	}
	sort.Strings(out)
	return out
}

func spanContains(sl, sc, el, ec, line, col int) bool {
	if line < sl || line > el {
		return false
	}
	if line == sl && col < sc {
		return false
	}
	if line == el && col > ec {
		return false
	}
	return true
}

// AttachFuncFacts computes a FuncFacts summary for every function
// declaration in pkgs and exports it into set. A function whose
// declaration line carries no inline decision is marked not Compiled —
// either its file was excluded from the build (constraints, test
// files) or the package was never handed to Run; analyzers treat that
// as "no proof", never as "clean".
func (f *Facts) AttachFuncFacts(pkgs []*load.Package, set *facts.Set) {
	for _, pkg := range pkgs {
		for _, file := range pkg.Syntax {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj := pkg.Info.Defs[fd.Name]
				if obj == nil {
					continue
				}
				start := pkg.Fset.Position(fd.Pos())
				end := pkg.Fset.Position(fd.End())
				ff := &FuncFacts{}
				if d, ok := f.Decisions[FileLine{start.Filename, start.Line}]; ok {
					ff.Compiled = true
					ff.CanInline = d.CanInline
					ff.InlineCost = d.Cost
					ff.CannotReason = d.Reason
				}
				ff.BoundsChecks = len(f.BoundsIn(start.Filename, start.Line, start.Column, end.Line, end.Column))
				set.ExportObjectFact(obj, ff)
			}
		}
	}
}
