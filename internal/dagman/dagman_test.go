package dagman

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
)

// fig3Text is the DAGMan input file of Fig. 3 (file IV.dag).
const fig3Text = `Job a a.sub
Job b b.sub
Job c c.sub
Job d d.sub
Job e e.sub
Parent a Child b
Parent c Child d e
`

func TestParseFig3(t *testing.T) {
	f, err := Parse(strings.NewReader(fig3Text))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Jobs) != 5 {
		t.Fatalf("jobs = %d", len(f.Jobs))
	}
	if j, ok := f.Job("c"); !ok || j.SubmitFile != "c.sub" {
		t.Fatalf("Job(c) = %+v, %v", j, ok)
	}
	if _, ok := f.Job("zzz"); ok {
		t.Fatal("undeclared job found")
	}
	if len(f.Deps()) != 3 {
		t.Fatalf("deps = %v", f.Deps())
	}
	g, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 || g.NumArcs() != 3 {
		t.Fatalf("graph %d nodes %d arcs", g.NumNodes(), g.NumArcs())
	}
	if !g.HasArc(g.IndexOf("c"), g.IndexOf("e")) {
		t.Fatal("arc c->e missing")
	}
}

func TestParseCaseInsensitiveAndComments(t *testing.T) {
	text := `# a comment
JOB x x.sub
job y y.sub DIR /tmp NOOP

PARENT x CHILD y
RETRY x 3
`
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Jobs) != 2 || len(f.Deps()) != 1 {
		t.Fatalf("parsed %d jobs, %d deps", len(f.Jobs), len(f.Deps()))
	}
	if j, _ := f.Job("y"); len(j.Extra) != 3 || j.Extra[0] != "DIR" {
		t.Fatalf("extra tokens = %v", j.Extra)
	}
	// Unknown and comment lines round-trip verbatim.
	if got := f.String(); got != text {
		t.Fatalf("round trip:\n%q\nwant\n%q", got, text)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"job missing submit": "Job a\n",
		"duplicate job":      "Job a a.sub\nJob a b.sub\n",
		"parent no child":    "Job a a.sub\nParent a\n",
		"child empty":        "Job a a.sub\nParent a Child\n",
		"vars short":         "Job a a.sub\nVars a\n",
	}
	for name, text := range cases {
		if _, err := Parse(strings.NewReader(text)); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

func TestGraphErrors(t *testing.T) {
	f, err := Parse(strings.NewReader("Job a a.sub\nParent a Child ghost\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Graph(); err == nil {
		t.Fatal("undeclared dependency accepted")
	}
	f2, err := Parse(strings.NewReader("Job a a.sub\nJob b b.sub\nParent a Child b\nParent b Child a\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f2.Graph(); err == nil {
		t.Fatal("cyclic dependencies accepted")
	}
}

func TestGraphDuplicateDepsCollapsed(t *testing.T) {
	f, err := Parse(strings.NewReader("Job a a.sub\nJob b b.sub\nParent a Child b\nParent a Child b\n"))
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumArcs() != 1 {
		t.Fatalf("arcs = %d, want 1", g.NumArcs())
	}
}

func TestMultiParentChild(t *testing.T) {
	f, err := Parse(strings.NewReader("Job a a.sub\nJob b b.sub\nJob c c.sub\nJob d d.sub\nParent a b Child c d\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Deps()) != 4 {
		t.Fatalf("deps = %v", f.Deps())
	}
}

// TestFig3Instrument reproduces the paper's Fig. 3 end to end: parse the
// file, prioritize with the heuristic, and check both the PRIO schedule
// and the instrumented output.
func TestFig3Instrument(t *testing.T) {
	f, err := Parse(strings.NewReader(fig3Text))
	if err != nil {
		t.Fatal(err)
	}
	g, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	s := core.Prioritize(g)
	prios := make(map[string]int)
	for v := 0; v < g.NumNodes(); v++ {
		prios[g.Name(v)] = s.Priority[v]
	}
	if prios["c"] != 5 {
		t.Fatalf("priority(c) = %d, want 5 (Fig. 3)", prios["c"])
	}
	out := f.Instrument(prios)
	for _, want := range []string{
		`Vars a jobpriority="4"`,
		`Vars b jobpriority="3"`,
		`Vars c jobpriority="5"`,
		`Vars d jobpriority="2"`,
		`Vars e jobpriority="1"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("instrumented file missing %q:\n%s", want, out)
		}
	}
	// Instrumented output must still parse and describe the same dag.
	f2, err := Parse(strings.NewReader(out))
	if err != nil {
		t.Fatalf("instrumented output unparseable: %v", err)
	}
	g2, err := f2.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 5 || g2.NumArcs() != 3 {
		t.Fatal("instrumentation changed the dag")
	}
}

func TestInstrumentReplacesExisting(t *testing.T) {
	text := "Job a a.sub\nVars a jobpriority=\"99\"\n"
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	out := f.Instrument(map[string]int{"a": 7})
	if strings.Contains(out, "99") {
		t.Fatalf("old priority kept:\n%s", out)
	}
	if !strings.Contains(out, `jobpriority="7"`) {
		t.Fatalf("new priority missing:\n%s", out)
	}
	if strings.Count(out, "jobpriority") != 1 {
		t.Fatalf("duplicate jobpriority lines:\n%s", out)
	}
}

func TestInstrumentKeepsUnrelatedVars(t *testing.T) {
	text := "Job a a.sub\nVars a cpus=\"4\"\n"
	f, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	out := f.Instrument(map[string]int{"a": 1})
	if !strings.Contains(out, `cpus="4"`) {
		t.Fatalf("unrelated VARS dropped:\n%s", out)
	}
	if !strings.Contains(out, `jobpriority="1"`) {
		t.Fatalf("priority missing:\n%s", out)
	}
}

func TestInstrumentUnknownJobAppended(t *testing.T) {
	f, err := Parse(strings.NewReader("Job a a.sub\n"))
	if err != nil {
		t.Fatal(err)
	}
	out := f.Instrument(map[string]int{"a": 2, "ghost": 1})
	if !strings.Contains(out, `Vars ghost jobpriority="1"`) {
		t.Fatalf("missing appended vars:\n%s", out)
	}
}

func TestFromGraphRoundTrip(t *testing.T) {
	gb := dag.New()
	a, b, c := gb.AddNode("a"), gb.AddNode("b"), gb.AddNode("c")
	gb.MustAddArc(a, b)
	gb.MustAddArc(a, c)
	g := gb.MustFreeze()
	f := FromGraph(g, nil)
	if j, ok := f.Job("a"); !ok || j.SubmitFile != "a.sub" {
		t.Fatalf("Job(a) = %+v", j)
	}
	g2, err := f.Graph()
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 3 || g2.NumArcs() != 2 {
		t.Fatal("round trip lost structure")
	}
	if g2.IndexOf("a") != a || g2.IndexOf("c") != c {
		t.Fatal("node order not preserved")
	}
	f2 := FromGraph(g, func(name string) string { return "shared.sub" })
	if j, _ := f2.Job("b"); j.SubmitFile != "shared.sub" {
		t.Fatal("custom submit file ignored")
	}
}

func TestSubmitParseAndAttribute(t *testing.T) {
	text := `executable = /bin/work
arguments = -n 1
log = job.log
queue
`
	s, err := ParseSubmit(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := s.Attribute("executable"); !ok || v != "/bin/work" {
		t.Fatalf("executable = %q, %v", v, ok)
	}
	if v, ok := s.Attribute("ARGUMENTS"); !ok || v != "-n 1" {
		t.Fatalf("case-insensitive lookup failed: %q", v)
	}
	if _, ok := s.Attribute("priority"); ok {
		t.Fatal("phantom priority")
	}
}

func TestSubmitInstrumentBeforeQueue(t *testing.T) {
	text := "executable = w\nqueue\n"
	s, err := ParseSubmit(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	s.InstrumentPriority()
	want := "executable = w\npriority = $(jobpriority)\nqueue\n"
	if s.String() != want {
		t.Fatalf("got:\n%q\nwant:\n%q", s.String(), want)
	}
	// idempotent
	s.InstrumentPriority()
	if s.String() != want {
		t.Fatalf("not idempotent:\n%q", s.String())
	}
}

func TestSubmitInstrumentReplacesPriority(t *testing.T) {
	s, err := ParseSubmit(strings.NewReader("priority = 3\nqueue\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.InstrumentPriority()
	if v, _ := s.Attribute("priority"); v != "$(jobpriority)" {
		t.Fatalf("priority = %q", v)
	}
	if strings.Count(s.String(), "priority =") != 1 {
		t.Fatalf("duplicate priority lines:\n%s", s.String())
	}
}

// A JSDF that sets priority twice keeps the last assignment in
// HTCondor's submit language, so every assignment must become
// $(jobpriority), and a second pass must change nothing.
func TestSubmitInstrumentReplacesEveryPriority(t *testing.T) {
	s, err := ParseSubmit(strings.NewReader("executable = w\npriority = 1\narguments = x\n  PRIORITY=2\nqueue\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Attribute("priority"); v != "2" {
		t.Fatalf("priority in force = %q, want the last assignment's 2", v)
	}
	s.InstrumentPriority()
	want := "executable = w\npriority = $(jobpriority)\narguments = x\npriority = $(jobpriority)\nqueue\n"
	if s.String() != want {
		t.Fatalf("got:\n%q\nwant:\n%q", s.String(), want)
	}
	s.InstrumentPriority()
	if s.String() != want {
		t.Fatalf("not idempotent:\n%q", s.String())
	}
}

func TestSubmitInstrumentNoQueue(t *testing.T) {
	s, err := ParseSubmit(strings.NewReader("executable = w\n"))
	if err != nil {
		t.Fatal(err)
	}
	s.InstrumentPriority()
	if v, ok := s.Attribute("priority"); !ok || v != "$(jobpriority)" {
		t.Fatalf("priority = %q, %v", v, ok)
	}
}

func TestSplitAttrEdgeCases(t *testing.T) {
	for _, ln := range []string{"", "  ", "# comment", "= nothing", "queue"} {
		if _, _, ok := splitAttr(ln); ok {
			t.Errorf("splitAttr(%q) accepted", ln)
		}
	}
	k, v, ok := splitAttr("  request_memory =  2 GB ")
	if !ok || k != "request_memory" || v != "2 GB" {
		t.Fatalf("splitAttr = %q %q %v", k, v, ok)
	}
}
