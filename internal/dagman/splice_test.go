package dagman

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// memLoader serves splice files from a map.
func memLoader(files map[string]string) func(string) (*File, error) {
	return func(name string) (*File, error) {
		text, ok := files[name]
		if !ok {
			return nil, os.ErrNotExist
		}
		return Parse(strings.NewReader(text))
	}
}

const innerDiamond = `Job s s.sub
Job l l.sub
Job r r.sub
Job t t.sub
Parent s Child l r
Parent l r Child t
`

func TestSpliceParse(t *testing.T) {
	f, err := Parse(strings.NewReader("Splice inner diamond.dag\nJob pre pre.sub\nParent pre Child inner\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Splices) != 1 || f.Splices[0].Name != "inner" || f.Splices[0].File != "diamond.dag" {
		t.Fatalf("splices = %+v", f.Splices)
	}
	if _, err := f.Graph(); err == nil {
		t.Fatal("Graph on unflattened file must fail")
	}
}

func TestSpliceParseErrors(t *testing.T) {
	for name, text := range map[string]string{
		"missing file":    "Splice x\n",
		"dup splice":      "Splice x a.dag\nSplice x b.dag\n",
		"job then splice": "Job x x.sub\nSplice x a.dag\n",
		"splice then job": "Splice x a.dag\nJob x x.sub\n",
	} {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestFlattenExpandsJobsAndDeps(t *testing.T) {
	outer := `Job pre pre.sub
Job post post.sub
Splice d diamond.dag
Parent pre Child d
Parent d Child post
`
	f, err := Parse(strings.NewReader(outer))
	if err != nil {
		t.Fatal(err)
	}
	flat, err := f.Flatten(memLoader(map[string]string{"diamond.dag": innerDiamond}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := flat.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 6 {
		t.Fatalf("flattened nodes = %d, want 6", g.NumNodes())
	}
	// pre feeds the splice's source, the splice's sink feeds post
	if !g.HasArc(g.IndexOf("pre"), g.IndexOf("d+s")) {
		t.Fatal("pre -> d+s missing")
	}
	if !g.HasArc(g.IndexOf("d+t"), g.IndexOf("post")) {
		t.Fatal("d+t -> post missing")
	}
	// internal dependencies preserved under the prefix
	if !g.HasArc(g.IndexOf("d+s"), g.IndexOf("d+l")) || !g.HasArc(g.IndexOf("d+r"), g.IndexOf("d+t")) {
		t.Fatal("internal splice arcs missing")
	}
}

func TestFlattenMultiSourceSinkFanout(t *testing.T) {
	inner := "Job a a.sub\nJob b b.sub\nJob c c.sub\nJob d d.sub\nParent a Child c\nParent b Child d\n"
	outer := "Job x x.sub\nJob y y.sub\nSplice s two.dag\nParent x Child s\nParent s Child y\n"
	f, _ := Parse(strings.NewReader(outer))
	flat, err := f.Flatten(memLoader(map[string]string{"two.dag": inner}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := flat.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// x must feed both sources a and b; both sinks c and d must feed y
	for _, want := range [][2]string{{"x", "s+a"}, {"x", "s+b"}, {"s+c", "y"}, {"s+d", "y"}} {
		if !g.HasArc(g.IndexOf(want[0]), g.IndexOf(want[1])) {
			t.Fatalf("missing arc %s -> %s", want[0], want[1])
		}
	}
}

func TestFlattenNested(t *testing.T) {
	leaf := "Job z z.sub\n"
	mid := "Job m m.sub\nSplice lf leaf.dag\nParent m Child lf\n"
	outer := "Splice md mid.dag\nJob end end.sub\nParent md Child end\n"
	f, _ := Parse(strings.NewReader(outer))
	flat, err := f.Flatten(memLoader(map[string]string{"leaf.dag": leaf, "mid.dag": mid}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := flat.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.IndexOf("md+lf+z") < 0 {
		t.Fatalf("nested splice job missing; jobs: %v", g.SortedNames())
	}
	if !g.HasArc(g.IndexOf("md+lf+z"), g.IndexOf("end")) {
		t.Fatal("nested sink must feed end")
	}
}

func TestFlattenCycleDetected(t *testing.T) {
	a := "Splice b b.dag\nJob ja ja.sub\n"
	b := "Splice a a.dag\nJob jb jb.sub\n"
	f, _ := Parse(strings.NewReader(a))
	_, err := f.Flatten(memLoader(map[string]string{"a.dag": a, "b.dag": b}))
	if err == nil || !strings.Contains(err.Error(), "cycle") {
		t.Fatalf("splice cycle not detected: %v", err)
	}
}

func TestFlattenMissingFile(t *testing.T) {
	f, _ := Parse(strings.NewReader("Splice s nope.dag\n"))
	if _, err := f.Flatten(memLoader(nil)); err == nil {
		t.Fatal("missing splice file accepted")
	}
}

func TestFlattenCarriesVars(t *testing.T) {
	inner := "Job a a.sub\nVars a site=\"east\"\n"
	outer := "Splice s inner.dag\nJob o o.sub\nVars o site=\"west\"\n"
	f, _ := Parse(strings.NewReader(outer))
	flat, err := f.Flatten(memLoader(map[string]string{"inner.dag": inner}))
	if err != nil {
		t.Fatal(err)
	}
	text := flat.String()
	if !strings.Contains(text, `Vars s+a site="east"`) {
		t.Fatalf("inner VARS not prefixed:\n%s", text)
	}
	if !strings.Contains(text, `Vars o site="west"`) {
		t.Fatalf("outer VARS lost:\n%s", text)
	}
}

// TestFlattenKeepsVarsBytes is the regression test for spliced VARS
// values: Flatten used to re-join a spliced VARS line's fields with
// single spaces, collapsing runs of spaces and tabs inside quoted
// values. Everything after the job name must come out verbatim.
func TestFlattenKeepsVarsBytes(t *testing.T) {
	inner := "Job a a.sub\nVARS a args=\"-i  x\tz\"\t jobpriority=\"4\"\n"
	f, _ := Parse(strings.NewReader("Splice s inner.dag\n"))
	flat, err := f.Flatten(memLoader(map[string]string{"inner.dag": inner}))
	if err != nil {
		t.Fatal(err)
	}
	want := "Vars s+a args=\"-i  x\tz\"\t jobpriority=\"4\"\n"
	if text := flat.String(); !strings.Contains(text, want) {
		t.Fatalf("spliced VARS line changed:\n%q\nwant a line\n%q", text, want)
	}
	// The carried priority is still the job's, so instrumenting the
	// flattened file rewrites it in place.
	if out := string(flat.InstrumentIDs([]int{9})); !strings.Contains(out, "Vars s+a args=\"-i  x\tz\"\t jobpriority=\"9\"\n") {
		t.Fatalf("instrumented flattened file:\n%q", out)
	}
}

func TestFlattenNoSplicesIsIdentity(t *testing.T) {
	f, _ := Parse(strings.NewReader("Job a a.sub\n"))
	flat, err := f.Flatten(memLoader(nil))
	if err != nil {
		t.Fatal(err)
	}
	if flat != f {
		t.Fatal("flatten of plain file should return the file unchanged")
	}
}

func TestLoadSpliceFromDisk(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "inner.dag"), []byte(innerDiamond), 0o644); err != nil {
		t.Fatal(err)
	}
	outerPath := filepath.Join(dir, "outer.dag")
	if err := os.WriteFile(outerPath, []byte("Splice d inner.dag\nJob end end.sub\nParent d Child end\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := ParseFile(outerPath)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := f.Flatten(LoadSplice(dir))
	if err != nil {
		t.Fatal(err)
	}
	g, err := flat.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d, want 5", g.NumNodes())
	}
}

func TestFlattenCyclicInnerDag(t *testing.T) {
	inner := "Job a a.sub\nJob b b.sub\nParent a Child b\nParent b Child a\n"
	f, _ := Parse(strings.NewReader("Splice s inner.dag\n"))
	if _, err := f.Flatten(memLoader(map[string]string{"inner.dag": inner})); err == nil {
		t.Fatal("cyclic inner dag accepted")
	}
}

func TestFlattenSpliceToSpliceDependency(t *testing.T) {
	inner := "Job a a.sub\nJob b b.sub\nParent a Child b\n"
	outer := "Splice s1 inner.dag\nSplice s2 inner.dag\nParent s1 Child s2\n"
	f, _ := Parse(strings.NewReader(outer))
	flat, err := f.Flatten(memLoader(map[string]string{"inner.dag": inner}))
	if err != nil {
		t.Fatal(err)
	}
	g, err := flat.Graph()
	if err != nil {
		t.Fatal(err)
	}
	// s1's sink (s1+b) must feed s2's source (s2+a)
	if !g.HasArc(g.IndexOf("s1+b"), g.IndexOf("s2+a")) {
		t.Fatalf("splice-to-splice dependency missing; arcs: %v", g.Arcs())
	}
}

// TestFlattenDrops checks that FlattenDrops names exactly the lines
// Flatten leaves out: comments, statements other than JOB, NODE, VARS,
// PARENT and SPLICE, and a SPLICE's DIR.
func TestFlattenDrops(t *testing.T) {
	f, err := Parse(strings.NewReader("# c\nJOB A a.sub\nRETRY A 3\nNode B b.sub\nVARS A x=\"1\"\n\nSPLICE S s.dag\nSPLICE T t.dag DIR sub\nPARENT A CHILD S T\ncategory A cat\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := "line 1 comment, line 3 RETRY, line 8 SPLICE DIR, line 10 category"
	if got := strings.Join(f.FlattenDrops(), ", "); got != want {
		t.Fatalf("FlattenDrops = %s, want %s", got, want)
	}
	if f, _ = Parse(strings.NewReader(innerDiamond)); f.FlattenDrops() != nil {
		t.Fatalf("FlattenDrops on a file of JOB and PARENT lines = %v", f.FlattenDrops())
	}
}
