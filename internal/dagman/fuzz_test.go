package dagman

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzParse hammers the DAGMan parser with arbitrary input: it must
// never panic, and any file it accepts must round-trip through String
// to an equivalent parse (same jobs, same dependency count).
func FuzzParse(f *testing.F) {
	f.Add("Job a a.sub\nParent a Child b\n")
	f.Add(fig3Text)
	f.Add("# comment only\n\n")
	f.Add("Splice s other.dag\nJob x x.sub\nParent s Child x\n")
	f.Add("Vars a key=\"v\"\nJOB a a.sub\nRETRY a 2\nPARENT a b CHILD c d e\n")
	f.Add("job A 1 DIR /x NOOP DONE\nparent A child A\n")
	f.Fuzz(func(t *testing.T, input string) {
		file, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		again, err := Parse(strings.NewReader(file.String()))
		if err != nil {
			t.Fatalf("accepted file failed to re-parse: %v\ninput: %q", err, input)
		}
		if len(again.Jobs) != len(file.Jobs) || len(again.Deps()) != len(file.Deps()) || len(again.Splices) != len(file.Splices) {
			t.Fatalf("round trip changed shape: %d/%d jobs, %d/%d deps",
				len(file.Jobs), len(again.Jobs), len(file.Deps()), len(again.Deps()))
		}
		// Building the graph must never panic either (errors are fine;
		// Freeze validates acyclicity internally).
		if len(file.Splices) == 0 {
			if g, err := file.Graph(); err == nil && g.NumNodes() != len(file.Jobs) {
				t.Fatalf("graph has %d nodes for %d jobs", g.NumNodes(), len(file.Jobs))
			}
		}
	})
}

// FuzzParseSubmit does the same for the JSDF parser and its
// instrumentation.
func FuzzParseSubmit(f *testing.F) {
	f.Add("executable = w\nqueue\n")
	f.Add("priority = 4\n")
	f.Add("# c\n = broken\nQUEUE 10\n")
	f.Fuzz(func(t *testing.T, input string) {
		s, err := ParseSubmit(strings.NewReader(input))
		if err != nil {
			return
		}
		s.InstrumentPriority()
		v, ok := s.Attribute("priority")
		if !ok || v != "$(jobpriority)" {
			t.Fatalf("instrumentation failed on %q: %q %v", input, v, ok)
		}
		before := s.String()
		s.InstrumentPriority()
		if s.String() != before {
			t.Fatalf("instrumentation not idempotent on %q", input)
		}
	})
}

// FuzzParseDAGMan is the full round-trip target: any input the parser
// accepts must re-parse from its own String output to a byte-identical
// file with identical jobs, dependencies and splices. Together with
// FuzzParse's shape check this pins the rewrite path: an instrumented
// copy differs from its input only by the priority lines prio adds.
func FuzzParseDAGMan(f *testing.F) {
	f.Add("Job a a.sub\nJob b b.sub\nParent a Child b\n")
	f.Add(fig3Text)
	f.Add("JOB A a.sub DIR /tmp NOOP\nVars A k=\"v\" k2=\"w\"\nRETRY A 3\nPARENT A CHILD A\n")
	f.Add("Splice inner inner.dag\nJob out out.sub\nParent inner Child out\n# trailing comment")
	f.Add("\tJob  q\t q.sub  \n\nPriority q 7\n")
	f.Add("\r\r")                                   // a line that still ends in \r once its \r\n is read
	f.Add("NODE a a.sub\r\r\nVARS a x=\"1\"\r\r\n") // ... on statements too
	for _, s := range instrumentSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		checkInstrumentOracle(t, input, -7)
		file, err := Parse(strings.NewReader(input))
		if err != nil {
			return
		}
		text := file.String()
		again, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatalf("accepted file failed to re-parse: %v\nwritten: %q", err, text)
		}
		if got := again.String(); got != text {
			t.Fatalf("write is not a fixed point:\nfirst:  %q\nsecond: %q", text, got)
		}
		if !reflect.DeepEqual(again.Jobs, file.Jobs) {
			t.Fatalf("round trip changed jobs: %v -> %v", file.Jobs, again.Jobs)
		}
		if !reflect.DeepEqual(again.Deps(), file.Deps()) {
			t.Fatalf("round trip changed deps: %v -> %v", file.Deps(), again.Deps())
		}
		if !reflect.DeepEqual(again.Splices, file.Splices) {
			t.Fatalf("round trip changed splices: %v -> %v", file.Splices, again.Splices)
		}
	})
}
