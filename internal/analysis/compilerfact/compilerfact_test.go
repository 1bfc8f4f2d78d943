package compilerfact

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis/facts"
	"repro/internal/analysis/load"
)

// TestParse feeds canned compiler output through the parser and checks
// every diagnostic class lands in the right index, exactly, and that
// the notes no analyzer consumes (escapes, devirtualization, elided
// checks) land in none.
func TestParse(t *testing.T) {
	out := strings.Join([]string{
		"# repro/internal/bitset",
		"internal/bitset/minset.go:72:6: can inline (*MinSet).Add with cost 61 as: method(*MinSet) func(int) { ... }",
		"internal/sim/kernelfast.go:282:6: cannot inline (*fastKernel).complete: function too complex: cost 203 exceeds budget 80",
		"internal/sim/kernelfast.go:309:14: inlining call to bitset.(*MinSet).Add",
		"internal/sim/kernel.go:57:10: devirtualizing h.Write to *fnv.sum64a",
		"internal/bitset/minset.go:45:20: Found IsSliceInBounds",
		"internal/bitset/minset.go:45:20: Found IsSliceInBounds", // inlined copy re-report
		"internal/sim/kernel.go:88:8: Found IsInBounds",
		"internal/bitset/minset.go:44:16: make([]uint64, w) escapes to heap:",
		"internal/bitset/minset.go:44:16:   flow: {heap} = &{storage for make([]uint64, w)}:",
		"internal/bitset/minset.go:44:16: make([]uint64, w) escapes to heap",
		"internal/sim/kernel.go:12:2: moved to heap: x",
		"internal/sim/kernel.go:99:9: s does not escape",
		"<autogenerated>:1: inlining call to small.Sum",
		"internal/sim/kernel.go:100:3: index bounds check elided",
	}, "\n")
	f := &Facts{
		Bounds:       make(map[string][]Pos),
		Decisions:    make(map[FileLine]InlineDecision),
		InlinedCalls: make(map[Pos]string),
	}
	f.parse("/repo", out)

	minset := "/repo/internal/bitset/minset.go"
	kernel := "/repo/internal/sim/kernel.go"
	kfast := "/repo/internal/sim/kernelfast.go"

	if got := f.Bounds[minset]; len(got) != 1 || got[0] != (Pos{minset, 45, 20}) {
		t.Errorf("minset bounds = %v, want one deduplicated site at 45:20", got)
	}
	if got := f.Bounds[kernel]; len(got) != 1 || got[0] != (Pos{kernel, 88, 8}) {
		t.Errorf("kernel bounds = %v, want 88:8", got)
	}

	d, ok := f.Decisions[FileLine{minset, 72}]
	if !ok || !d.CanInline || d.Cost != 61 || d.Name != "(*MinSet).Add" {
		t.Errorf("Add decision = %+v, ok=%v; want can-inline cost 61", d, ok)
	}
	d, ok = f.Decisions[FileLine{kfast, 282}]
	if !ok || d.CanInline || d.Cost != 203 || !strings.Contains(d.Reason, "cost 203 exceeds budget 80") {
		t.Errorf("complete decision = %+v, ok=%v; want cannot-inline cost 203", d, ok)
	}

	if got := f.InlinedCalls[Pos{kfast, 309, 14}]; got != "bitset.(*MinSet).Add" {
		t.Errorf("inlined call = %q, want bitset.(*MinSet).Add", got)
	}
	if len(f.Bounds) != 2 || len(f.Decisions) != 2 || len(f.InlinedCalls) != 1 {
		t.Errorf("index sizes = %d bounds files, %d decisions, %d inlined calls; want 2, 2, 1 (unconsumed notes must be skipped)",
			len(f.Bounds), len(f.Decisions), len(f.InlinedCalls))
	}
}

// TestRunFixture compiles the testdata fixture and checks the facts the
// real toolchain produces. Assertions avoid exact inline costs, which
// vary across compiler versions.
func TestRunFixture(t *testing.T) {
	f, err := Run("", nil, nil)
	if err != nil {
		t.Fatalf("empty Run: %v", err)
	}
	if len(f.Packages) != 0 {
		t.Fatalf("empty Run compiled %v", f.Packages)
	}

	f, err = Run("", []string{"./testdata/src/cf"}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	wd, _ := filepath.Abs(".")
	file := filepath.Join(wd, "testdata/src/cf/cf.go")

	// index's body must carry a bounds check; a position-keyed lookup
	// through the span helper must find it.
	if got := f.BoundsIn(file, 7, 1, 7, 200); len(got) == 0 {
		t.Errorf("no bounds check found in index's declaration line; Bounds=%v", f.Bounds[file])
	}
	// tiny can inline, big cannot (with a reason naming its cost).
	tiny, ok := f.Decisions[FileLine{file, 10}]
	if !ok || !tiny.CanInline || tiny.Cost <= 0 {
		t.Errorf("tiny decision = %+v, ok=%v; want can-inline with positive cost", tiny, ok)
	}
	big, ok := f.Decisions[FileLine{file, 13}]
	if !ok || big.CanInline || big.Reason == "" || big.Cost == 0 {
		t.Errorf("big decision = %+v, ok=%v; want cannot-inline with reason and cost", big, ok)
	}
	// caller's call of tiny is actually inlined.
	if callee, ok := f.InlinedAt(file, 40); !ok || !strings.Contains(callee, "tiny") {
		t.Errorf("InlinedAt(caller) = %q, %v; want an inlined call to tiny", callee, ok)
	}
}

// TestAttachFuncFacts loads the fixture through the real loader and
// checks the per-function summaries exported into the fact store.
func TestAttachFuncFacts(t *testing.T) {
	pkgs, err := load.Load("", "./testdata/src/cf")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	f, err := Run("", []string{"./testdata/src/cf"}, nil)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	set := new(facts.Set)
	f.AttachFuncFacts(pkgs, set)

	lookup := func(name string) *FuncFacts {
		t.Helper()
		for _, pkg := range pkgs {
			if obj := pkg.Types.Scope().Lookup(name); obj != nil {
				ff := new(FuncFacts)
				if !set.ImportObjectFact(obj, ff) {
					t.Fatalf("no FuncFacts for %s", name)
				}
				return ff
			}
		}
		t.Fatalf("object %s not found", name)
		return nil
	}

	if ff := lookup("index"); !ff.Compiled || ff.BoundsChecks == 0 || !ff.CanInline {
		t.Errorf("index facts = %+v; want compiled, bounds-checked, inlinable", ff)
	}
	if ff := lookup("tiny"); !ff.Compiled || ff.BoundsChecks != 0 || !ff.CanInline {
		t.Errorf("tiny facts = %+v; want compiled, clean, inlinable", ff)
	}
	if ff := lookup("big"); !ff.Compiled || ff.CanInline || ff.CannotReason == "" {
		t.Errorf("big facts = %+v; want compiled, not inlinable, with reason", ff)
	}
}
