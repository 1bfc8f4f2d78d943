package dagman

import (
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// The reference parser: the straightforward strings.Fields tokenizer,
// string-keyed dependencies and a dag.Builder graph that Parse and
// Graph replaced. It is the oracle the differential tests hold the
// id-based path to — same jobs, dependencies and splices, same errors,
// and a bit-identical Frozen.

type refFile struct {
	Jobs    []Job
	Deps    []Dep
	Splices []Splice
	index   map[string]int
}

func refParse(r io.Reader) (*refFile, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("dagman: read: %w", err)
	}
	text := string(data)
	f := &refFile{index: make(map[string]int)}
	lineNo := 0
	for start := 0; start < len(text); {
		var raw string
		if end := strings.IndexByte(text[start:], '\n'); end < 0 {
			raw = text[start:]
			start = len(text)
		} else {
			raw = text[start : start+end]
			start += end + 1
		}
		raw = strings.TrimSuffix(raw, "\r")
		lineNo++
		if err := f.addLine(raw, lineNo); err != nil {
			return nil, err
		}
	}
	return f, nil
}

func refTail(fields []string) []string {
	if len(fields) == 0 {
		return nil
	}
	return append([]string(nil), fields...)
}

func (f *refFile) addLine(raw string, lineNo int) error {
	fields := strings.Fields(raw)
	if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
		return nil
	}
	switch kw := strings.ToUpper(fields[0]); kw {
	case "JOB", "NODE":
		if len(fields) < 3 {
			return fmt.Errorf("dagman: line %d: %s needs a name and a submit file", lineNo, kw)
		}
		name := fields[1]
		if _, dup := f.index[name]; dup {
			return fmt.Errorf("dagman: line %d: duplicate job %q", lineNo, name)
		}
		for _, s := range f.Splices {
			if s.Name == name {
				return fmt.Errorf("dagman: line %d: job %q collides with a splice name", lineNo, name)
			}
		}
		f.index[name] = len(f.Jobs)
		f.Jobs = append(f.Jobs, Job{Name: name, SubmitFile: fields[2], Extra: refTail(fields[3:])})
	case "PARENT":
		childAt := -1
		for i, tok := range fields {
			if strings.EqualFold(tok, "CHILD") {
				childAt = i
				break
			}
		}
		if childAt < 2 || childAt == len(fields)-1 {
			return fmt.Errorf("dagman: line %d: PARENT ... CHILD ... malformed", lineNo)
		}
		for _, p := range fields[1:childAt] {
			for _, c := range fields[childAt+1:] {
				f.Deps = append(f.Deps, Dep{Parent: p, Child: c})
			}
		}
	case "VARS":
		if len(fields) < 3 {
			return fmt.Errorf("dagman: line %d: VARS needs a job and an assignment", lineNo)
		}
	case "SPLICE":
		if len(fields) < 3 {
			return fmt.Errorf("dagman: line %d: SPLICE needs a name and a file", lineNo)
		}
		name := fields[1]
		if _, dup := f.index[name]; dup {
			return fmt.Errorf("dagman: line %d: splice %q collides with a job name", lineNo, name)
		}
		for _, s := range f.Splices {
			if s.Name == name {
				return fmt.Errorf("dagman: line %d: duplicate splice %q", lineNo, name)
			}
		}
		f.Splices = append(f.Splices, Splice{Name: name, File: fields[2], Extra: refTail(fields[3:])})
	}
	return nil
}

func (f *refFile) Graph() (*dag.Frozen, error) {
	if len(f.Splices) > 0 {
		return nil, fmt.Errorf("dagman: file contains %d unresolved SPLICE statements; call Flatten first", len(f.Splices))
	}
	b := dag.NewWithCapacity(len(f.Jobs))
	for _, j := range f.Jobs {
		b.AddNode(j.Name)
	}
	for _, d := range f.Deps {
		u, v := b.IndexOf(d.Parent), b.IndexOf(d.Child)
		if u < 0 {
			return nil, fmt.Errorf("dagman: dependency names undeclared job %q", d.Parent)
		}
		if v < 0 {
			return nil, fmt.Errorf("dagman: dependency names undeclared job %q", d.Child)
		}
		if b.HasArc(u, v) {
			continue
		}
		if err := b.AddArc(u, v); err != nil {
			return nil, fmt.Errorf("dagman: %w", err)
		}
	}
	g, err := b.Freeze()
	if err != nil {
		return nil, fmt.Errorf("dagman: dependencies are cyclic: %w", err)
	}
	return g, nil
}

// diffFrozen describes the first difference between two frozen dags in
// anything a caller can observe — node names and the name index,
// Children and Parents order, the topological precomputes — or returns
// "" when they are bit-identical.
func diffFrozen(a, b *dag.Frozen) string {
	if a.NumNodes() != b.NumNodes() || a.NumArcs() != b.NumArcs() {
		return fmt.Sprintf("%d nodes %d arcs vs %d nodes %d arcs", a.NumNodes(), a.NumArcs(), b.NumNodes(), b.NumArcs())
	}
	eq := func(x, y []int32) bool { return fmt.Sprint(x) == fmt.Sprint(y) }
	for v := 0; v < a.NumNodes(); v++ {
		switch {
		case a.Name(v) != b.Name(v):
			return fmt.Sprintf("node %d named %q vs %q", v, a.Name(v), b.Name(v))
		case a.IndexOf(a.Name(v)) != b.IndexOf(a.Name(v)):
			return fmt.Sprintf("IndexOf(%q) = %d vs %d", a.Name(v), a.IndexOf(a.Name(v)), b.IndexOf(a.Name(v)))
		case !eq(a.Children(v), b.Children(v)):
			return fmt.Sprintf("Children(%d) = %v vs %v", v, a.Children(v), b.Children(v))
		case !eq(a.Parents(v), b.Parents(v)):
			return fmt.Sprintf("Parents(%d) = %v vs %v", v, a.Parents(v), b.Parents(v))
		}
	}
	switch {
	case !eq(a.Topo(), b.Topo()):
		return fmt.Sprintf("Topo = %v vs %v", a.Topo(), b.Topo())
	case !eq(a.TopoPositions(), b.TopoPositions()):
		return "TopoPositions differ"
	case !eq(a.Sources(), b.Sources()):
		return fmt.Sprintf("Sources = %v vs %v", a.Sources(), b.Sources())
	}
	return ""
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkOracle holds Parse and Graph to the reference parser on one
// input: the same jobs, dependencies, splices and errors (which carry
// the line number), and a bit-identical Frozen.
func checkOracle(t *testing.T, input string) {
	t.Helper()
	got, err := Parse(strings.NewReader(input))
	want, werr := refParse(strings.NewReader(input))
	if errText(err) != errText(werr) {
		t.Fatalf("Parse error %v, reference %v\ninput: %q", err, werr, input)
	}
	if err != nil {
		return
	}
	// append normalizes an empty, presized Jobs to the reference's nil.
	if !reflect.DeepEqual(append([]Job(nil), got.Jobs...), want.Jobs) {
		t.Fatalf("jobs %v, reference %v\ninput: %q", got.Jobs, want.Jobs, input)
	}
	if !reflect.DeepEqual(got.Deps(), want.Deps) {
		t.Fatalf("deps %v, reference %v\ninput: %q", got.Deps(), want.Deps, input)
	}
	if !reflect.DeepEqual(got.Splices, want.Splices) {
		t.Fatalf("splices %v, reference %v\ninput: %q", got.Splices, want.Splices, input)
	}
	for _, j := range want.Jobs {
		if _, ok := got.Job(j.Name); !ok {
			t.Fatalf("Job(%q) not found\ninput: %q", j.Name, input)
		}
	}
	for _, d := range want.Deps {
		for _, name := range []string{d.Parent, d.Child} {
			_, ok := got.Job(name)
			if _, declared := want.index[name]; ok != declared {
				t.Fatalf("Job(%q) found = %v, declared = %v\ninput: %q", name, ok, declared, input)
			}
		}
	}
	g, err := got.Graph()
	wg, werr := want.Graph()
	if errText(err) != errText(werr) {
		t.Fatalf("Graph error %v, reference %v\ninput: %q", err, werr, input)
	}
	if err == nil {
		if d := diffFrozen(g, wg); d != "" {
			t.Fatalf("Graph differs from the reference: %s\ninput: %q", d, input)
		}
	}
}

// oracleSeeds exercise what the id-based parser resolves differently
// from the reference: forward references, repeated and reversed arcs,
// self-loops, cycles, undeclared jobs, splices, keyword spellings and
// Unicode white space.
var oracleSeeds = []string{
	fig3Text,
	"Parent a Child b\nJob b b.sub\nJob a a.sub\n",
	"Job a a.sub\nJob b b.sub\nJob c c.sub\nParent a Child b c\nParent a Child b\nParent c Child b\nParent a b Child c\n",
	"Job a a.sub\nJob b b.sub\nParent a Child b\nParent b Child b\nParent a Child ghost\n",
	"Job a a.sub\nParent a Child ghost\nParent a Child a\n",
	"Job a a.sub\nJob b b.sub\nParent a Child b\nParent b Child a\n",
	"Splice s s.dag\nJob x x.sub\nParent s Child x\nParent x Child t\n",
	"Parent s Child x\nSplice s s.dag\nJob x x.sub\n",
	"pArEnT x y cHiLd z\njob z z.sub\nJOB y y.sub\nJob x x.sub DIR d NOOP\n",
	"Job a a.sub\nJob a a.sub\nVARS a x=\"1\"\nParent a Child\u0085a\n",
	"SPLıCE s s.dag\nJob s s.sub\n",
	"ſplice s s.dag\nJoB t\tt.sub\r\nParent t Child t\n",
	"Job a a.sub\nVars a\n",
	"Job a a.sub\nJob a b.sub\n",
	"Parent a Child b c\nParent b Child c\nJob c c.sub\nJob b b.sub\nJob a a.sub\nParent c Child a\n",
	"NODE A A.sub\nNODE B B.sub\nNODE C C.sub\nNODE D D.sub\nPARENT A CHILD B C\nPARENT B C CHILD D\n",
	"node a a.sub\nJob b b.sub\nNoDe a c.sub\nNODE c\n",
	"Node x x.sub DIR d NOOP\nParent x Child y\nnode y y.sub DONE\n",
}

func TestParseMatchesOracle(t *testing.T) {
	for _, input := range oracleSeeds {
		checkOracle(t, input)
	}
	// Random dags written with shuffled declarations, repeated arcs and
	// PARENT lines ahead of their JOB lines.
	r := rng.New(11)
	for i := 0; i < 200; i++ {
		n := 1 + r.Intn(25)
		var b strings.Builder
		perm := r.Perm(n)
		for k, v := range perm {
			if k == n/2 {
				for a := 0; a < n; a++ {
					u, w := r.Intn(n), r.Intn(n)
					if u < w || r.Intn(8) == 0 {
						fmt.Fprintf(&b, "Parent j%d Child j%d\n", u, w)
					}
				}
			}
			fmt.Fprintf(&b, "Job j%d j%d.sub\n", v, v)
		}
		checkOracle(t, b.String())
	}
	// The paper dags as FromGraph writes them.
	for _, g := range []*dag.Frozen{workloads.PaperAIRSN(), workloads.PaperMontage()} {
		checkOracle(t, FromGraph(g, nil).String())
	}
}

// FuzzParseOracle is the differential fuzz target: on any input, Parse
// and Graph agree with the reference parser (see checkOracle).
func FuzzParseOracle(f *testing.F) {
	for _, s := range oracleSeeds {
		f.Add(s)
	}
	f.Fuzz(checkOracle)
}
