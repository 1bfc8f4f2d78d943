package dagman

import (
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestPipelineAllocsPerJob pins the allocation count of the name-free
// prio path — Parse, Graph and InstrumentIDs — on an SDSS-sized file.
// The parser resolves each job name once and every later stage carries
// int32 ids, so the count is a few hundred per file, not a few per job
// as it was when each stage hashed names into its own map. The bound is
// a share of the job count: a per-line or per-job allocation creeping
// back into any stage exceeds it.
func TestPipelineAllocsPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("parses the 48k-job SDSS dag several times")
	}
	g := workloads.PaperSDSS()
	text := FromGraph(g, nil).String()
	prio := make([]int, g.NumNodes())
	for v := range prio {
		prio[v] = g.NumNodes() - v
	}
	var sink int
	allocs := testing.AllocsPerRun(3, func() {
		f, err := Parse(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		fg, err := f.Graph()
		if err != nil {
			t.Fatal(err)
		}
		sink += fg.NumArcs() + len(f.InstrumentIDs(prio))
	})
	jobs := float64(g.NumNodes())
	t.Logf("%d jobs: %.0f allocations (%.4f per job)", g.NumNodes(), allocs, allocs/jobs)
	if limit := jobs / 128; allocs > limit {
		t.Fatalf("Parse+Graph+InstrumentIDs made %.0f allocations on %d jobs; the pin is %.0f (jobs/128)", allocs, g.NumNodes(), limit)
	}
	_ = sink
}
