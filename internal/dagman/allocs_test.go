package dagman

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/workloads"
)

// TestPipelineAllocsPerJob pins the allocations of the name-free prio
// path — Parse, Graph and InstrumentIDs — on the SDSS file, fresh and
// decorated. The parser resolves each job name once and every later
// stage carries int32 ids, so the count is a few hundred per file, not
// a few per job as it was when each stage hashed names into its own
// map; the count bound is a share of the job count, so a per-line or
// per-job allocation creeping back into any stage exceeds it. The File
// keeps the input text and a pointer-free edit list instead of a record
// per line, so the bytes bound is set per job a little above what that
// layout takes (measured with Go 1.24: 418 B/job fresh, 794
// decorated): a 24-byte record per input line exceeds it, and so does
// a 24-byte record per job.
func TestPipelineAllocsPerJob(t *testing.T) {
	if testing.Short() {
		t.Skip("parses the 48k-job SDSS dag several times")
	}
	g := workloads.PaperSDSS()
	fresh := FromGraph(g, nil).String()
	prio := make([]int, g.NumNodes())
	for v := range prio {
		prio[v] = g.NumNodes() - v
	}
	jobs := float64(g.NumNodes())
	for _, tc := range []struct {
		form        string
		text        string
		bytesPerJob float64
	}{
		{"fresh", fresh, 430},
		{"decorated", decorate(fresh, 7), 815},
	} {
		var sink int
		run := func() {
			f, err := Parse(strings.NewReader(tc.text))
			if err != nil {
				t.Fatal(err)
			}
			fg, err := f.Graph()
			if err != nil {
				t.Fatal(err)
			}
			sink += fg.NumArcs() + len(f.InstrumentIDs(prio))
		}
		allocs := testing.AllocsPerRun(3, run)
		bytes := bytesPerRun(3, run)
		t.Logf("%s: %d jobs, %d lines: %.0f allocations (%.4f per job), %.0f bytes (%.1f per job)",
			tc.form, g.NumNodes(), strings.Count(tc.text, "\n"), allocs, allocs/jobs, bytes, bytes/jobs)
		if limit := jobs / 128; allocs > limit {
			t.Errorf("%s: Parse+Graph+InstrumentIDs made %.0f allocations on %d jobs; the pin is %.0f (jobs/128)", tc.form, allocs, g.NumNodes(), limit)
		}
		if bytes/jobs > tc.bytesPerJob {
			t.Errorf("%s: Parse+Graph+InstrumentIDs allocated %.1f bytes per job; the pin is %.0f", tc.form, bytes/jobs, tc.bytesPerJob)
		}
		_ = sink
	}
}

// bytesPerRun returns the heap bytes f allocates per call, averaged
// over runs calls after a warm-up call, on one P as AllocsPerRun does.
func bytesPerRun(runs int, f func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
