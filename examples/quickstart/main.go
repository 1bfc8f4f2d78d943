// Quickstart: the paper's Fig. 3 example, end to end.
//
// Builds the five-job dag (a -> b, c -> d, c -> e), runs the prio
// scheduling heuristic, and prints the PRIO schedule, the per-job
// priorities, and the instrumented DAGMan input file — reproducing the
// c, a, b, d, e schedule shown in the paper.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dagman"
)

const inputFile = `Job a a.sub
Job b b.sub
Job c c.sub
Job d d.sub
Job e e.sub
Parent a Child b
Parent c Child d e
`

func main() {
	// Parse the DAGMan input file and extract the dag of dependencies.
	f, err := dagman.Parse(strings.NewReader(inputFile))
	if err != nil {
		panic(err)
	}
	g, err := f.Graph()
	if err != nil {
		panic(err)
	}

	// Apply the scheduling heuristic (Divide / Recurse / Combine).
	sched := core.Prioritize(g)

	fmt.Println("PRIO schedule:")
	for i, v := range sched.Order {
		sep := ", "
		if i == len(sched.Order)-1 {
			sep = "\n"
		}
		fmt.Printf("%s%s", g.Name(v), sep)
	}

	fmt.Println("\nJob priorities (larger runs first):")
	for v := 0; v < g.NumNodes(); v++ {
		fmt.Printf("  %s: %d\n", g.Name(v), sched.Priority[v])
	}

	// Instrument the DAGMan file the way the prio tool does: g's node v
	// is the file's job v, so the priorities index straight into it.
	fmt.Println("\nInstrumented DAGMan input file:")
	fmt.Println(string(f.InstrumentIDs(sched.Priority)))

	// And the one-line change to each job submit description file.
	sf, err := dagman.ParseSubmit(strings.NewReader("executable = work\nqueue\n"))
	if err != nil {
		panic(err)
	}
	sf.InstrumentPriority()
	fmt.Println("Instrumented submit description file:")
	fmt.Println(sf.String())

	// Compare the number of eligible jobs under PRIO and FIFO at every
	// step (the Fig. 4 quantity).
	fifo := core.FIFOSchedule(g)
	diff, err := core.TraceDifference(g, sched.Order, fifo)
	if err != nil {
		panic(err)
	}
	fmt.Printf("eligibility difference PRIO-FIFO by step: %v\n", diff)
}
