package dagman_test

import (
	"fmt"
	"strings"

	"repro/internal/dagman"
)

func ExampleParse() {
	f, _ := dagman.Parse(strings.NewReader(`Job a a.sub
Job b b.sub
Parent a Child b
`))
	g, _ := f.Graph()
	fmt.Println("jobs:", g.NumNodes(), "deps:", g.NumArcs())
	// Output:
	// jobs: 2 deps: 1
}

func ExampleFile_Instrument() {
	f, _ := dagman.Parse(strings.NewReader("Job a a.sub\nJob b b.sub\nParent a Child b\n"))
	fmt.Print(f.Instrument(map[string]int{"a": 2, "b": 1}))
	// Output:
	// Job a a.sub
	// Vars a jobpriority="2"
	// Job b b.sub
	// Vars b jobpriority="1"
	// Parent a Child b
}

func ExampleFile_InstrumentIDs() {
	f, _ := dagman.Parse(strings.NewReader(`Job a a.sub
Job b b.sub
VARS b site="east"  jobpriority="7"
Parent a Child b
`))
	g, _ := f.Graph()
	// Node v of g is job v of f, so a schedule's priorities index both.
	prio := make([]int, g.NumNodes())
	prio[g.IndexOf("a")], prio[g.IndexOf("b")] = 2, 1
	fmt.Print(string(f.InstrumentIDs(prio)))
	// Output:
	// Job a a.sub
	// Vars a jobpriority="2"
	// Job b b.sub
	// VARS b site="east"  jobpriority="1"
	// Parent a Child b
}

func ExampleSubmitFile_InstrumentPriority() {
	s, _ := dagman.ParseSubmit(strings.NewReader("executable = work\nqueue\n"))
	s.InstrumentPriority()
	fmt.Print(s.String())
	// Output:
	// executable = work
	// priority = $(jobpriority)
	// queue
}

func ExampleFile_Flatten() {
	inner := "Job x x.sub\nJob y y.sub\nParent x Child y\n"
	outer, _ := dagman.Parse(strings.NewReader("Splice sub inner.dag\nJob last last.sub\nParent sub Child last\n"))
	flat, _ := outer.Flatten(func(string) (*dagman.File, error) {
		return dagman.Parse(strings.NewReader(inner))
	})
	g, _ := flat.Graph()
	fmt.Println(g.SortedNames())
	// Output:
	// [last sub+x sub+y]
}
