// Benchmarks regenerating every table and figure of the paper's
// evaluation. Each benchmark is named for the exhibit it reproduces:
//
//	Fig. 3   BenchmarkFig3PrioPipeline        (the worked 5-job example)
//	Fig. 4   BenchmarkFig4EligibilityDiff/*   (PRIO-FIFO eligibility traces)
//	Fig. 5   BenchmarkFig5AIRSNBottleneck     (AIRSN prioritization)
//	Fig. 6   BenchmarkFig6AIRSN               (simulation ratios, AIRSN)
//	Fig. 7   BenchmarkFig7Inspiral
//	Fig. 8   BenchmarkFig8SDSS
//	Fig. 9   BenchmarkFig9Montage
//	S 3.6    BenchmarkOverhead/*              (scheduling the four dags)
//
// The Section 3.5 ablations time designs that production no longer
// carries, so they live next to their test-only oracles:
// BenchmarkAblationFastPath in internal/decompose and
// BenchmarkAblationCombine in internal/core.
//
// The simulation benchmarks fix mu_BIT = 1 and use each dag's
// best-gain batch size from the paper (AIRSN 2^5, Inspiral 2^9,
// Montage 2^7, SDSS 2^13) on scaled-down dags so a full -bench=. run
// stays in the minutes; cmd/simgrid regenerates the complete grids.
package repro

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/dagman"
	"repro/internal/rng"
	"repro/internal/sim"
	"repro/internal/workloads"
)

func BenchmarkFig3PrioPipeline(b *testing.B) {
	g := quickstartDag()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := core.Prioritize(g)
		if g.Name(s.Order[0]) != "c" {
			b.Fatal("Fig. 3 schedule regressed")
		}
	}
}

func quickstartDag() *dag.Frozen {
	g := dag.New()
	a, bb, c, d, e := g.AddNode("a"), g.AddNode("b"), g.AddNode("c"), g.AddNode("d"), g.AddNode("e")
	g.MustAddArc(a, bb)
	g.MustAddArc(c, d)
	g.MustAddArc(c, e)
	return g.MustFreeze()
}

func BenchmarkFig4EligibilityDiff(b *testing.B) {
	for _, name := range workloads.Names() {
		b.Run(name, func(b *testing.B) {
			g, err := workloads.ByName(name, 1) // paper-scale dags
			if err != nil {
				b.Fatal(err)
			}
			prio := core.Prioritize(g).Order
			fifo := core.FIFOSchedule(g)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				diff, err := core.TraceDifference(g, prio, fifo)
				if err != nil {
					b.Fatal(err)
				}
				sum := 0
				for _, d := range diff {
					sum += d
				}
				// PRIO must not be meaningfully below FIFO. Montage sits
				// at ~zero (the paper's weakest case, with -1..-3 job dips
				// from the outdegree order on its grid component); the
				// other dags are strongly positive.
				if sum < -len(diff) {
					b.Fatalf("%s: PRIO cumulatively below FIFO (sum %d over %d steps)", name, sum, len(diff))
				}
			}
		})
	}
}

func BenchmarkFig5AIRSNBottleneck(b *testing.B) {
	g := workloads.PaperAIRSN()
	fork := workloads.AIRSNForkJob(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := core.Prioritize(g)
		if s.Priority[fork] != 753 {
			b.Fatalf("fork priority = %d, want 753", s.Priority[fork])
		}
	}
}

// benchSimPoint runs one PRIO/FIFO comparison per iteration at the
// paper's best-gain point for the dag — 2·P·Q replications through the
// flat grid engine — and reports replication throughput, the figure of
// merit for the 11.3M-run evaluation (see EXPERIMENTS.md "Simulation
// engine").
func benchSimPoint(b *testing.B, name string, scale int, muBS float64) {
	g, err := workloads.ByName(name, scale)
	if err != nil {
		b.Fatal(err)
	}
	opts := sim.ExperimentOptions{P: 6, Q: 6, Seed: 1}
	reps := float64(2 * opts.P * opts.Q)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts.Seed = uint64(i + 1)
		c := sim.ComparePRIOFIFO(g, sim.DefaultParams(1, muBS), opts)
		if !c.ExecTime.Valid {
			b.Fatal("invalid CI")
		}
	}
	b.ReportMetric(reps*float64(b.N)/b.Elapsed().Seconds(), "reps/s")
}

func BenchmarkFig6AIRSN(b *testing.B)    { benchSimPoint(b, "airsn", 4, 32) }     // 2^5
func BenchmarkFig7Inspiral(b *testing.B) { benchSimPoint(b, "inspiral", 8, 512) } // 2^9
func BenchmarkFig8SDSS(b *testing.B)     { benchSimPoint(b, "sdss", 40, 8192) }   // 2^13
func BenchmarkFig9Montage(b *testing.B)  { benchSimPoint(b, "montage", 9, 128) }  // 2^7

// Extension: per-policy simulation cost at the headline point — PRIO's
// bitmap dispatch versus FIFO's queue versus the randomized and
// critical-path baselines and the throttled two-level queue.
func BenchmarkPolicies(b *testing.B) {
	g, err := workloads.ByName("airsn", 1)
	if err != nil {
		b.Fatal(err)
	}
	p := sim.DefaultParams(1, 16)
	for _, name := range []string{"prio", "fifo", "random", "critpath", "prio-maxjobs=16"} {
		factory, err := sim.PolicyFactory(name, g)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			pol := factory()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sim.Run(g, p, pol, rng.New(uint64(i+1)))
			}
		})
	}
}

// The memo cache on a repeated-shape field: every tile is the same
// shape, the situation of SDSS's thousands of identical chains. The
// warm case additionally reuses the cache (and its embedded transitive
// reduction) across calls, as a priod tenant's cache does.
func BenchmarkScheduleCache(b *testing.B) {
	g := workloads.TileField(rng.New(13), 96, 120, 180, 12, true)
	b.Run("off", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.PrioritizeOpts(g, core.Options{})
		}
	})
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			core.PrioritizeOpts(g, core.Options{Cache: core.NewCache()})
		}
	})
	b.Run("warm", func(b *testing.B) {
		cache := core.NewCache()
		core.PrioritizeOpts(g, core.Options{Cache: cache})
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.PrioritizeOpts(g, core.Options{Cache: cache})
		}
	})
}

// BenchmarkOverhead is the Section 3.6 exhibit: running time (ns/op)
// and, with -benchmem, allocation (B/op) of core.Prioritize on the four
// paper-scale dags, plus the number of components the decomposition
// found. The DAGMan parse and instrumentation are not timed. The paper
// reports, on 2006 hardware: AIRSN <1 s / 2 MB, Inspiral 16 s / 21 MB,
// Montage 8 s / 104 MB, SDSS 845 s / 1.3 GB. make sweeps records it in
// results/overhead.txt, and TestOverheadAndAblationTables holds
// EXPERIMENTS.md to that file.
func BenchmarkOverhead(b *testing.B) {
	for _, name := range workloads.Names() {
		b.Run(name, func(b *testing.B) {
			g, err := workloads.ByName(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			var s *core.Schedule
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s = core.Prioritize(g)
			}
			b.ReportMetric(float64(len(s.Components)), "components")
		})
	}
}

// BenchmarkParseSchedule measures the end-to-end parse→Graph→Prioritize
// path on the four paper dags. It is
// the frozen-CSR core's allocation gate: make bench-core pipes it
// through cmd/benchjson, which asserts allocs/op against the checked-in
// baseline in results/core-bench-baseline.json. The DAGMan text is
// rendered once outside the timer so the loop measures exactly what
// the prio tool does per invocation: parse a submit file, freeze the
// dag, and schedule it.
func BenchmarkParseSchedule(b *testing.B) {
	for _, name := range workloads.Names() {
		b.Run(name, func(b *testing.B) {
			g, err := workloads.ByName(name, 1)
			if err != nil {
				b.Fatal(err)
			}
			text := dagman.FromGraph(g, nil).String()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := dagman.Parse(strings.NewReader(text))
				if err != nil {
					b.Fatal(err)
				}
				gg, err := f.Graph()
				if err != nil {
					b.Fatal(err)
				}
				s := core.Prioritize(gg)
				if len(s.Order) != gg.NumNodes() {
					b.Fatal("bad schedule")
				}
			}
		})
	}
}
