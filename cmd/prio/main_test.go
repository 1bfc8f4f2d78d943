package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dagman"
	"repro/internal/workloads"
)

const fig3 = `Job a a.sub
Job b b.sub
Job c c.sub
Job d d.sub
Job e e.sub
Parent a Child b
Parent c Child d e
`

func writeInput(t *testing.T) (dir, dagPath string) {
	t.Helper()
	dir = t.TempDir()
	dagPath = filepath.Join(dir, "IV.dag")
	if err := os.WriteFile(dagPath, []byte(fig3), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c", "d", "e"} {
		sub := "executable = " + name + "\nqueue\n"
		if err := os.WriteFile(filepath.Join(dir, name+".sub"), []byte(sub), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, dagPath
}

func TestRunStdout(t *testing.T) {
	_, dagPath := writeInput(t)
	var out strings.Builder
	if err := run([]string{dagPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `Vars c jobpriority="5"`) {
		t.Fatalf("missing Fig. 3 priority for c:\n%s", out.String())
	}
}

func TestRunOutputFileAndSubmit(t *testing.T) {
	dir, dagPath := writeInput(t)
	outPath := filepath.Join(dir, "out.dag")
	var stdout strings.Builder
	if err := run([]string{"-o", outPath, "-submit", dagPath}, &stdout); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Fatal("wrote to stdout despite -o")
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(out), "jobpriority") {
		t.Fatal("output file not instrumented")
	}
	sub, err := os.ReadFile(filepath.Join(dir, "c.sub"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(sub), "priority = $(jobpriority)") {
		t.Fatalf("submit file not instrumented:\n%s", sub)
	}
}

// A JSDF that sets priority twice: HTCondor keeps the last
// assignment, so -submit must rewrite both, and a second run must leave
// the file as the first left it.
func TestRunSubmitRewritesEveryPriority(t *testing.T) {
	dir, dagPath := writeInput(t)
	subPath := filepath.Join(dir, "c.sub")
	if err := os.WriteFile(subPath, []byte("executable = w\npriority = 1\narguments = x\npriority = 2\nqueue\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	want := "executable = w\npriority = $(jobpriority)\narguments = x\npriority = $(jobpriority)\nqueue\n"
	for pass := 1; pass <= 2; pass++ {
		var stdout strings.Builder
		if err := run([]string{"-o", filepath.Join(dir, "out.dag"), "-submit", dagPath}, &stdout); err != nil {
			t.Fatal(err)
		}
		sub, err := os.ReadFile(subPath)
		if err != nil {
			t.Fatal(err)
		}
		if string(sub) != want {
			t.Fatalf("run %d left c.sub as\n%q\nwant\n%q", pass, sub, want)
		}
	}
}

// The DAGMan manual's diamond spells its jobs NODE. prio must accept it
// and give every job the priority it gets when the same file says JOB.
func TestRunNodeSpelling(t *testing.T) {
	const diamond = `# File name: diamond.dag
NODE  A  A.sub
NODE  B  B.sub
NODE  C  C.sub
NODE  D  D.sub
PARENT A CHILD B C
PARENT B C CHILD D
`
	prios := func(text string) map[string]string {
		dir := t.TempDir()
		path := filepath.Join(dir, "diamond.dag")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		var out strings.Builder
		if err := run([]string{path}, &out); err != nil {
			t.Fatal(err)
		}
		got := make(map[string]string)
		for _, ln := range strings.Split(out.String(), "\n") {
			var job, p string
			if n, _ := fmt.Sscanf(ln, "Vars %s jobpriority=%s", &job, &p); n == 2 {
				got[job] = p
			}
		}
		return got
	}
	node, job := prios(diamond), prios(strings.ReplaceAll(diamond, "NODE ", "JOB "))
	if len(node) != 4 || fmt.Sprint(node) != fmt.Sprint(job) {
		t.Fatalf("NODE spelling gives priorities %v, JOB spelling %v", node, job)
	}
}

func TestRunInplace(t *testing.T) {
	_, dagPath := writeInput(t)
	var stdout strings.Builder
	if err := run([]string{"-inplace", dagPath}, &stdout); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(dagPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(text), `Vars c jobpriority="5"`) {
		t.Fatal("input not instrumented in place")
	}
	// running again must not duplicate the VARS lines
	if err := run([]string{"-inplace", dagPath}, &stdout); err != nil {
		t.Fatal(err)
	}
	text2, _ := os.ReadFile(dagPath)
	if strings.Count(string(text2), "jobpriority") != 5 {
		t.Fatalf("idempotence broken:\n%s", text2)
	}
}

func TestRunDotOutput(t *testing.T) {
	dir, dagPath := writeInput(t)
	dotPath := filepath.Join(dir, "g.dot")
	var stdout strings.Builder
	if err := run([]string{"-o", filepath.Join(dir, "x.dag"), "-dot", dotPath, dagPath}, &stdout); err != nil {
		t.Fatal(err)
	}
	dot, err := os.ReadFile(dotPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(dot), "digraph") || !strings.Contains(string(dot), "p=5") {
		t.Fatalf("dot output wrong:\n%s", dot)
	}
}

func TestRunSplicedInput(t *testing.T) {
	dir := t.TempDir()
	inner := filepath.Join(dir, "inner.dag")
	os.WriteFile(inner, []byte("Job s s.sub\nJob t t.sub\nParent s Child t\n"), 0o644)
	outer := filepath.Join(dir, "outer.dag")
	os.WriteFile(outer, []byte("Splice in inner.dag\nJob end end.sub\nParent in Child end\n"), 0o644)
	var out strings.Builder
	if err := run([]string{outer}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Job in+s", "Job in+t", `Vars in+s jobpriority="3"`, "Parent in+t Child end"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("flattened output missing %q:\n%s", want, out.String())
		}
	}
}

// TestRunSplicedInputNotOverwritten runs prio on a spliced workflow
// whose outer file, or a file it splices, has comments and statements
// the flattened file cannot keep: -inplace, and -o naming the input,
// must refuse, name them and leave the file as it was, while stdout
// and -o another file still get the flattened text.
func TestRunSplicedInputNotOverwritten(t *testing.T) {
	dir := t.TempDir()
	os.WriteFile(filepath.Join(dir, "inner.dag"), []byte("JOB X x.sub\nJOB Y y.sub\n"), 0o644)
	outer := filepath.Join(dir, "outer.dag")
	text := "# c\nCONFIG my.config\nJOB A a.sub\nRETRY A 3\nSCRIPT PRE A pre.sh\nSPLICE S inner.dag\nPARENT A CHILD S\nMAXJOBS cat 5\n"
	os.WriteFile(outer, []byte(text), 0o644)
	for _, args := range [][]string{{"-inplace", outer}, {"-o", outer, outer}} {
		err := run(args, io.Discard)
		if err == nil {
			t.Fatalf("prio %v overwrote a spliced input with its flattened text", args)
		}
		for _, want := range []string{"line 1 comment", "line 2 CONFIG", "line 4 RETRY", "line 5 SCRIPT", "line 8 MAXJOBS"} {
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("prio %v: error %q does not name %q", args, err, want)
			}
		}
		if got, _ := os.ReadFile(outer); string(got) != text {
			t.Fatalf("prio %v changed the input:\n%s", args, got)
		}
	}
	// Written anywhere else, the flattened text comes out as before,
	// with a warning on stderr naming what it dropped.
	warning := "prio: warning: " + outer + ": its flattened SPLICEs drop line 1 comment, line 2 CONFIG, line 4 RETRY, line 5 SCRIPT, line 8 MAXJOBS\n"
	var stdout strings.Builder
	if stderr := stderrOf(t, func() error { return run([]string{outer}, &stdout) }); stderr != warning {
		t.Fatalf("stdout: stderr %q, want %q", stderr, warning)
	}
	want := "JOB A a.sub\nVars A jobpriority=\"3\"\nJob S+X x.sub\nVars S+X jobpriority=\"2\"\nJob S+Y y.sub\nVars S+Y jobpriority=\"1\"\n" +
		"Parent A Child S+X\nParent A Child S+Y\n"
	if stdout.String() != want {
		t.Fatalf("flattened output:\n%s\nwant:\n%s", stdout.String(), want)
	}
	other := filepath.Join(dir, "flat.dag")
	if stderr := stderrOf(t, func() error { return run([]string{"-o", other, outer}, io.Discard) }); stderr != warning {
		t.Fatalf("-o another file: stderr %q, want %q", stderr, warning)
	}
	if got, _ := os.ReadFile(other); string(got) != want {
		t.Fatalf("-o another file:\n%s\nwant:\n%s", got, want)
	}

	// A statement the flattened file drops from a spliced file stops
	// the overwrite as well, named by that file; once every file is
	// plain, -inplace writes the flattened text over the input.
	text = "JOB A a.sub\nSPLICE S inner.dag\nPARENT A CHILD S\n"
	os.WriteFile(outer, []byte(text), 0o644)
	os.WriteFile(filepath.Join(dir, "inner.dag"), []byte("JOB X x.sub\nRETRY X 2\nJOB Y y.sub\n"), 0o644)
	for _, args := range [][]string{{"-inplace", outer}, {"-o", outer, outer}} {
		if err := run(args, io.Discard); err == nil || !strings.Contains(err.Error(), "inner.dag line 2 RETRY") {
			t.Fatalf("prio %v on a spliced file with a RETRY: error %v, want one naming inner.dag line 2 RETRY", args, err)
		}
		if got, _ := os.ReadFile(outer); string(got) != text {
			t.Fatalf("prio %v changed the input:\n%s", args, got)
		}
	}
	stdout.Reset()
	if stderr := stderrOf(t, func() error { return run([]string{outer}, &stdout) }); !strings.Contains(stderr, "inner.dag line 2 RETRY") {
		t.Fatalf("stdout on a spliced file with a RETRY: stderr %q, want a warning naming inner.dag line 2 RETRY", stderr)
	}
	if stdout.String() != want {
		t.Fatalf("flattened output with an inner RETRY:\n%s\nwant:\n%s", stdout.String(), want)
	}
	os.WriteFile(filepath.Join(dir, "inner.dag"), []byte("JOB X x.sub\nJOB Y y.sub\n"), 0o644)
	if stderr := stderrOf(t, func() error { return run([]string{"-inplace", outer}, io.Discard) }); stderr != "" {
		t.Fatalf("-inplace on a plain spliced input warned: %q", stderr)
	}
	if got, _ := os.ReadFile(outer); string(got) != want {
		t.Fatalf("-inplace on a plain spliced input:\n%s\nwant:\n%s", got, want)
	}
}

// stderrOf runs f with os.Stderr sent to a file, fails the test if f
// returns an error, and returns what f wrote to stderr.
func stderrOf(t *testing.T, f func() error) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	saved := os.Stderr
	os.Stderr = tmp
	err = f()
	os.Stderr = saved
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(got)
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{}, &out); err == nil {
		t.Fatal("missing argument accepted")
	}
	if err := run([]string{"/no/such/file.dag"}, &out); err == nil {
		t.Fatal("missing file accepted")
	}
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.dag")
	os.WriteFile(bad, []byte("Job a\n"), 0o644)
	if err := run([]string{bad}, &out); err == nil {
		t.Fatal("malformed file accepted")
	}
	cyc := filepath.Join(dir, "cyc.dag")
	os.WriteFile(cyc, []byte("Job a a.sub\nJob b b.sub\nParent a Child b\nParent b Child a\n"), 0o644)
	if err := run([]string{cyc}, &out); err == nil {
		t.Fatal("cyclic file accepted")
	}
	// -submit with missing JSDF
	lone := filepath.Join(dir, "lone.dag")
	os.WriteFile(lone, []byte("Job a missing.sub\n"), 0o644)
	if err := run([]string{"-o", filepath.Join(dir, "o.dag"), "-submit", lone}, &out); err == nil {
		t.Fatal("missing submit file accepted")
	}
}

// expectJoined polls until the goroutine count is back at baseline and
// fails if it is still above after 5 s: a launcher that returns before
// its goroutines finish, or whose goroutines block forever, leaves them
// behind.
func expectJoined(t *testing.T, what string, baseline int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s left %d goroutine(s) running", what, runtime.NumGoroutine()-baseline)
		}
	}
}

func TestRunMultipleFilesParallel(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i := 0; i < 6; i++ {
		p := filepath.Join(dir, fmt.Sprintf("w%d.dag", i))
		if err := os.WriteFile(p, []byte(fig3), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	var out strings.Builder
	baseline := runtime.NumGoroutine()
	if err := run(append([]string{"-inplace"}, paths...), &out); err != nil {
		t.Fatal(err)
	}
	expectJoined(t, "a six-file -inplace run", baseline)
	for _, p := range paths {
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(text), `Vars c jobpriority="5"`) {
			t.Fatalf("%s not instrumented", p)
		}
	}
	// multiple files without -inplace must be rejected
	if err := run(paths, &out); err == nil {
		t.Fatal("multiple inputs without -inplace accepted")
	}
}

// TestRunMultipleFilesSharedSubmit: sixteen dags that share one JSDF,
// rewritten by one -inplace -submit run, must leave the JSDF exactly as
// a single-file run leaves it. Concurrent rewrites of a shared JSDF
// lose its contents only on some interleavings, so the batch runs
// twenty times.
func TestRunMultipleFilesSharedSubmit(t *testing.T) {
	const jsdf = "executable = work\narguments = $(args)\nrequest_memory = 2048\nqueue\n"
	const text = "Job a shared.sub\nJob b shared.sub\nJob c shared.sub\nParent a Child b c\n"
	batch := func(n int) (dir string, paths []string) {
		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "shared.sub"), []byte(jsdf), 0o644); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			p := filepath.Join(dir, fmt.Sprintf("w%d.dag", i))
			if err := os.WriteFile(p, []byte(text), 0o644); err != nil {
				t.Fatal(err)
			}
			paths = append(paths, p)
		}
		return dir, paths
	}
	var out strings.Builder
	dir, paths := batch(1)
	if err := run([]string{"-inplace", "-submit", paths[0]}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join(dir, "shared.sub"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(want), "priority = $(jobpriority)") || !strings.Contains(string(want), "request_memory") {
		t.Fatalf("single-file run left the JSDF as:\n%s", want)
	}
	for iter := 0; iter < 20; iter++ {
		dir, paths := batch(16)
		if err := run(append([]string{"-inplace", "-submit"}, paths...), &out); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "shared.sub"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("run %d: shared JSDF is\n%s\nwant\n%s", iter, got, want)
		}
	}
}

// TestRunAIRSNEndToEnd pushes the paper's full AIRSN dag through the
// real tool surface: render the 773-job dag as a DAGMan input file, run
// prio on it, and confirm the Fig. 5 bottleneck priority (753) in the
// instrumented output.
func TestRunAIRSNEndToEnd(t *testing.T) {
	g := workloads.PaperAIRSN()
	f := dagman.FromGraph(g, nil)
	dir := t.TempDir()
	path := filepath.Join(dir, "airsn.dag")
	if err := os.WriteFile(path, []byte(f.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	fork := g.Name(workloads.AIRSNForkJob(g))
	want := fmt.Sprintf("Vars %s jobpriority=\"753\"", fork)
	if !strings.Contains(out.String(), want) {
		t.Fatalf("instrumented AIRSN missing %q", want)
	}
	// re-parse and confirm every job carries a priority
	f2, err := dagman.Parse(strings.NewReader(out.String()))
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Jobs) != 773 {
		t.Fatalf("round trip lost jobs: %d", len(f2.Jobs))
	}
	if got := strings.Count(out.String(), "jobpriority"); got != 773 {
		t.Fatalf("%d jobpriority lines, want 773", got)
	}
}

// TestRunMultipleFilesPartialFailure: in multi-file -inplace mode a bad
// input must produce a non-nil error (so main exits non-zero) that
// names every failed file, while the good files are still instrumented.
func TestRunMultipleFilesPartialFailure(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.dag")
	if err := os.WriteFile(good, []byte(fig3), 0o644); err != nil {
		t.Fatal(err)
	}
	malformed := filepath.Join(dir, "malformed.dag")
	if err := os.WriteFile(malformed, []byte("Job a\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "missing.dag")

	var out strings.Builder
	err := run([]string{"-inplace", good, malformed, missing}, &out)
	if err == nil {
		t.Fatal("bad inputs accepted in multi-file -inplace mode")
	}
	for _, want := range []string{malformed, missing} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error does not name failed input %s:\n%v", want, err)
		}
	}
	text, readErr := os.ReadFile(good)
	if readErr != nil {
		t.Fatal(readErr)
	}
	if !strings.Contains(string(text), `Vars c jobpriority="5"`) {
		t.Errorf("good file not instrumented despite failures elsewhere:\n%s", text)
	}
}

// TestRunRejectsFlagsItCannotHonour: a flag that names one file's
// output must fail the run, naming the flag, rather than be dropped
// silently, and the rejected run must write nothing.
func TestRunRejectsFlagsItCannotHonour(t *testing.T) {
	for _, c := range []struct {
		name, flag string
		args       []string // A and B stand for two input files, DOT and OUT for output paths
	}{
		{"inplace-o", "-o", []string{"-inplace", "-o", "OUT", "A"}},
		{"multi-o", "-o", []string{"-inplace", "-o", "OUT", "A", "B"}},
		{"multi-dot", "-dot", []string{"-inplace", "-dot", "DOT", "A", "B"}},
		{"multi-explain", "-explain", []string{"-inplace", "-explain", "c", "A", "B"}},
		{"multi-theoretical", "-theoretical", []string{"-inplace", "-theoretical", "A", "B"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, a := writeInput(t)
			paths := map[string]string{
				"A": a, "B": filepath.Join(dir, "b.dag"),
				"DOT": filepath.Join(dir, "x.dot"), "OUT": filepath.Join(dir, "out.dag"),
			}
			if err := os.WriteFile(paths["B"], []byte(fig3), 0o644); err != nil {
				t.Fatal(err)
			}
			args := make([]string, len(c.args))
			for i, arg := range c.args {
				if p, ok := paths[arg]; ok {
					arg = p
				}
				args[i] = arg
			}
			var stdout strings.Builder
			err := run(args, &stdout)
			if err == nil || !strings.Contains(err.Error(), c.flag) {
				t.Errorf("prio %v: error %v, want one naming %s", c.args, err, c.flag)
			}
			for _, k := range []string{"DOT", "OUT"} {
				if _, err := os.Stat(paths[k]); !os.IsNotExist(err) {
					t.Errorf("prio %v wrote %s", c.args, k)
				}
			}
			for _, k := range []string{"A", "B"} {
				if text, _ := os.ReadFile(paths[k]); string(text) != fig3 {
					t.Errorf("prio %v rewrote %s", c.args, k)
				}
			}
		})
	}
}
