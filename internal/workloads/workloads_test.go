package workloads

import (
	"fmt"
	"testing"

	"repro/internal/bipartite"
	"repro/internal/core"
	"repro/internal/dag"
	"repro/internal/rng"
)

func TestAIRSNPaperSize(t *testing.T) {
	g := PaperAIRSN()
	if g.NumNodes() != 773 {
		t.Fatalf("AIRSN(250) has %d jobs, paper says 773", g.NumNodes())
	}
	if w := g.MaxLevelWidth(); w < 250 {
		t.Fatalf("AIRSN width = %d, want >= 250", w)
	}
}

func TestAIRSNShape(t *testing.T) {
	g := AIRSN(10)
	if g.NumNodes() != 3*10+23 {
		t.Fatalf("AIRSN(10) nodes = %d", g.NumNodes())
	}
	fork := AIRSNForkJob(g)
	if g.OutDegree(fork) != 10 {
		t.Fatalf("fork out-degree = %d, want width", g.OutDegree(fork))
	}
	// every cover-1 job has exactly two parents: the fork and a fringe
	for i := 0; i < 10; i++ {
		c := g.IndexOf("c1.0")
		if g.InDegree(c) != 2 {
			t.Fatalf("cover-1 job in-degree = %d", g.InDegree(c))
		}
	}
	// sources: h0 plus the 10 fringes
	if len(g.Sources()) != 11 {
		t.Fatalf("sources = %d, want 11", len(g.Sources()))
	}
	// sinks: only the final join
	if len(g.Sinks()) != 1 {
		t.Fatalf("sinks = %d, want 1", len(g.Sinks()))
	}
}

// TestAIRSNBottleneck reproduces Fig. 5: prio assigns the fork job and
// its ancestors higher priorities than the fringes, and the fork job of
// the width-250 dag lands at priority 753.
func TestAIRSNBottleneck(t *testing.T) {
	g := PaperAIRSN()
	s := core.Prioritize(g)
	fork := AIRSNForkJob(g)
	if got := s.Priority[fork]; got != 753 {
		t.Fatalf("fork priority = %d, paper shows 753", got)
	}
	// every fringe runs after the fork under PRIO
	for i := 0; i < 250; i++ {
		f := g.IndexOf("f0")
		if s.Rank[f] < s.Rank[fork] {
			t.Fatalf("fringe ranked before the fork")
		}
	}
	// ...but before the fork under FIFO
	fifo := core.FIFOSchedule(g)
	pos := make([]int, g.NumNodes())
	for i, v := range fifo {
		pos[v] = i
	}
	if pos[g.IndexOf("f0")] > pos[fork] {
		t.Fatal("FIFO should reach fringes before the deep fork job")
	}
	if err := core.ValidateExecutionOrder(g, s.Order); err != nil {
		t.Fatal(err)
	}
}

func TestAIRSNEligibilityDominance(t *testing.T) {
	g := AIRSN(50)
	s := core.Prioritize(g)
	diff, err := core.TraceDifference(g, s.Order, core.FIFOSchedule(g))
	if err != nil {
		t.Fatal(err)
	}
	min, max := 0, 0
	for _, d := range diff {
		if d < min {
			min = d
		}
		if d > max {
			max = d
		}
	}
	if max < 40 {
		t.Fatalf("PRIO should hold ~width more eligible jobs at its peak, max diff = %d", max)
	}
	if min < -2 {
		t.Fatalf("PRIO fell %d below FIFO", -min)
	}
}

func TestInspiralPaperSize(t *testing.T) {
	g := PaperInspiral()
	if g.NumNodes() != 2988 {
		t.Fatalf("Inspiral has %d jobs, paper says 2988", g.NumNodes())
	}
}

func TestInspiralNonBipartiteComponent(t *testing.T) {
	g := Inspiral(229)
	s := core.Prioritize(g)
	// The paper: "the Inspiral includes a non-bipartite component with
	// over 1000 jobs".
	biggest := 0
	for i, cs := range s.Components {
		if n := len(s.Decomposition.Nodes(i)); cs.Family == bipartite.Unknown && n > biggest {
			biggest = n
		}
	}
	if biggest <= 1000 {
		t.Fatalf("largest non-bipartite component has %d jobs, want > 1000", biggest)
	}
	if err := core.ValidateExecutionOrder(g, s.Order); err != nil {
		t.Fatal(err)
	}
}

func TestMontagePaperSize(t *testing.T) {
	g := PaperMontage()
	if g.NumNodes() != 7881 {
		t.Fatalf("Montage has %d jobs, paper says 7881", g.NumNodes())
	}
}

func TestMontageBipartiteComponent(t *testing.T) {
	g := Montage(12, 5)
	s := core.Prioritize(g)
	// Find the projection/difference component: bipartite, with sources
	// of out-degree between 2 and 10, some children shared.
	found := false
	for i := range s.Components {
		sub := s.Decomposition.Sub(i)
		// the component of interest is the projection/difference stage
		// (mDiff.0 also reappears later as the source of its fit pair)
		if sub.IndexOf("mDiff.0") < 0 || sub.IndexOf("mProject.0") < 0 || !sub.IsBipartiteDag() {
			continue
		}
		found = true
		shared := false
		for v := 0; v < sub.NumNodes(); v++ {
			if sub.IsSource(v) {
				if d := sub.OutDegree(v); d < 2 || d > 10 {
					t.Fatalf("projection out-degree %d outside the paper's 'few to about ten'", d)
				}
			} else if sub.InDegree(v) == 2 {
				shared = true
			}
		}
		if !shared {
			t.Fatal("no difference job shared between two projections")
		}
	}
	if !found {
		t.Fatal("no large bipartite projection component found")
	}
}

func TestMontagePaperComponentOver1000(t *testing.T) {
	g := PaperMontage()
	s := core.Prioritize(g)
	biggest := 0
	for i := range s.Components {
		if n := len(s.Decomposition.Nodes(i)); s.Decomposition.Sub(i).IsBipartiteDag() && n > biggest {
			biggest = n
		}
	}
	if biggest <= 1000 {
		t.Fatalf("largest bipartite component has %d jobs, want > 1000", biggest)
	}
}

func TestSDSSPaperSize(t *testing.T) {
	g := PaperSDSS()
	if g.NumNodes() != 48013 {
		t.Fatalf("SDSS has %d jobs, paper says 48013", g.NumNodes())
	}
}

func TestSDSSStructure(t *testing.T) {
	g := SDSS(100, 5)
	// every brg job has exactly three children, every field job three
	// brg parents plus its stripe calibration
	for i := 0; i < 100; i++ {
		if d := g.OutDegree(g.IndexOf(fmt.Sprintf("brg.%d", i))); d != 3 {
			t.Fatalf("brg out-degree = %d, want 3", d)
		}
		if d := g.InDegree(g.IndexOf(fmt.Sprintf("field.%d", i))); d != 4 {
			t.Fatalf("field in-degree = %d, want 3 brg + 1 calib", d)
		}
	}
	// calib jobs have wide fanout (the AIRSN-like bottlenecks)
	if d := g.OutDegree(g.IndexOf("calib.0")); d != 20 {
		t.Fatalf("calib out-degree = %d, want fields/stripes", d)
	}
	s := core.Prioritize(g)
	if err := core.ValidateExecutionOrder(g, s.Order); err != nil {
		t.Fatal(err)
	}
	// the brg/calib/field stage must form one big bipartite component
	biggest := 0
	for i := range s.Components {
		if n := len(s.Decomposition.Nodes(i)); s.Decomposition.Sub(i).IsBipartiteDag() && n > biggest {
			biggest = n
		}
	}
	if biggest < 205 {
		t.Fatalf("brg/field component has %d jobs, want 2x fields + calibs", biggest)
	}
}

// TestSDSSEligibilityAdvantage checks the Fig. 4 mechanism on SDSS: prio
// schedules the wide-fanout calibration jobs before the brg "fringes",
// so its eligibility curve dominates FIFO's with a large hump.
func TestSDSSEligibilityAdvantage(t *testing.T) {
	g := SDSS(500, 5)
	s := core.Prioritize(g)
	diff, err := core.TraceDifference(g, s.Order, core.FIFOSchedule(g))
	if err != nil {
		t.Fatal(err)
	}
	max, min := 0, 0
	for _, d := range diff {
		if d > max {
			max = d
		}
		if d < min {
			min = d
		}
	}
	if max < 250 {
		t.Fatalf("max eligibility advantage = %d, want a hump of about the field count", max)
	}
	if min < -5 {
		t.Fatalf("PRIO fell %d below FIFO", -min)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		g, err := ByName(name, 10)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.NumNodes() == 0 {
			t.Fatalf("%s: empty", name)
		}
	}
	if _, err := ByName("nope", 1); err == nil {
		t.Fatal("unknown name accepted")
	}
	// scale 1 gives paper sizes
	g, _ := ByName("airsn", 1)
	if g.NumNodes() != 773 {
		t.Fatalf("ByName(airsn, 1) = %d jobs", g.NumNodes())
	}
	// degenerate scales clamp instead of panicking
	if g, err := ByName("sdss", 1<<30); err != nil || g.NumNodes() == 0 {
		t.Fatal("extreme scale should clamp")
	}
}

func TestLayered(t *testing.T) {
	r := rng.New(4)
	g := Layered(r, 5, 8, 0.3)
	if g.NumNodes() != 40 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// every non-first-layer node has at least one parent
	level, _ := g.Levels()
	for v := 0; v < g.NumNodes(); v++ {
		if level[v] > 0 && g.InDegree(v) == 0 {
			t.Fatalf("node %s at level %d has no parents", g.Name(v), level[v])
		}
	}
}

func TestConstructorPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"AIRSN(0)":        func() { AIRSN(0) },
		"Inspiral(1)":     func() { Inspiral(1) },
		"Montage(1,0)":    func() { Montage(1, 0) },
		"Montage(4,100)":  func() { Montage(4, 100) },
		"SDSS(2,5)":       func() { SDSS(2, 5) },
		"SDSS(7,5)":       func() { SDSS(7, 5) },
		"Layered(0,1,.5)": func() { Layered(rng.New(1), 0, 1, 0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestAllWorkloadsPrioritizeValid(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *dag.Frozen
	}{
		{"airsn", AIRSN(40)},
		{"inspiral", Inspiral(30)},
		{"montage", Montage(8, 4)},
		{"sdss", SDSS(60, 3)},
	} {
		s := core.Prioritize(tc.g)
		if err := core.ValidateExecutionOrder(tc.g, s.Order); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		diff, err := core.TraceDifference(tc.g, s.Order, core.FIFOSchedule(tc.g))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		sum := 0
		for _, d := range diff {
			sum += d
		}
		if sum < 0 {
			t.Fatalf("%s: PRIO cumulatively below FIFO (sum %d)", tc.name, sum)
		}
	}
}

func BenchmarkAIRSNBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PaperAIRSN()
	}
}

func BenchmarkSDSSBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		PaperSDSS()
	}
}

// TestWorkloadWidths pins the exact Dilworth widths of the paper-scale
// dags (SDSS exceeds the exact-width bound; its level width is checked
// instead). Inspiral's width of 458 is what caps its simulation gains
// at batch sizes beyond ~2^9 — see EXPERIMENTS.md.
func TestWorkloadWidths(t *testing.T) {
	cases := map[string]int{"airsn": 251, "inspiral": 458, "montage": 2641}
	for name, want := range cases {
		g, err := ByName(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		w, anti, err := g.Width()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if w != want {
			t.Fatalf("%s width = %d, want %d", name, w, want)
		}
		if len(anti) != w {
			t.Fatalf("%s antichain size %d != width %d", name, len(anti), w)
		}
	}
	sdss := PaperSDSS()
	if _, _, err := sdss.Width(); err == nil {
		t.Fatal("SDSS should exceed the exact-width bound")
	}
	if w := sdss.MaxLevelWidth(); w < 12000 {
		t.Fatalf("SDSS level width = %d, want >= fields", w)
	}
}

func TestTileFieldShape(t *testing.T) {
	const tiles, s, tt, k = 7, 5, 8, 4
	g := TileField(rng.New(3), tiles, s, tt, k, false)
	if g.NumNodes() != tiles*(s+tt) {
		t.Fatalf("TileField nodes = %d, want %d", g.NumNodes(), tiles*(s+tt))
	}
	// Every arc stays inside its tile and runs projection -> difference.
	for v := 0; v < g.NumNodes(); v++ {
		tile, off := v/(s+tt), v%(s+tt)
		for _, c32 := range g.Children(v) {
			c := int(c32)
			if c/(s+tt) != tile {
				t.Fatalf("arc %d -> %d crosses tiles", v, c)
			}
			if off >= s || c%(s+tt) < s {
				t.Fatalf("arc %d -> %d is not projection -> difference", v, c)
			}
		}
	}
	// Deterministic for a given seed.
	h := TileField(rng.New(3), tiles, s, tt, k, false)
	if !g.StructuralEq(h) {
		t.Fatal("TileField is not deterministic for a fixed seed")
	}
}

func TestTileFieldSharedShapes(t *testing.T) {
	const tiles, s, tt, k = 6, 5, 8, 4
	g := TileField(rng.New(9), tiles, s, tt, k, true)
	// With sharedShapes every tile repeats tile 0's wiring.
	stride := s + tt
	for b := 1; b < tiles; b++ {
		for v := 0; v < stride; v++ {
			a, c := g.Children(v), g.Children(b*stride+v)
			if len(a) != len(c) {
				t.Fatalf("tile %d node %d degree differs from tile 0", b, v)
			}
			for i := range a {
				if int(a[i])%stride != int(c[i])%stride {
					t.Fatalf("tile %d node %d wiring differs from tile 0", b, v)
				}
			}
		}
	}
}
