package core

import (
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// TestPrioritizeSoak hammers the full pipeline with a few hundred random
// dags of assorted shapes, asserting schedule validity and priority
// bijectivity every time.
func TestPrioritizeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	r := rng.New(2025)
	for trial := 0; trial < 250; trial++ {
		var g = randomDag(r, 2+r.Intn(80), 0.02+r.Float64()*0.3)
		if trial%3 == 0 {
			g = workloads.Layered(r, 2+r.Intn(6), 1+r.Intn(10), 0.3)
		}
		s := Prioritize(g)
		if err := ValidateExecutionOrder(g, s.Order); err != nil {
			t.Fatalf("trial %d: %v (arcs %v)", trial, err, g.Arcs())
		}
		seen := make([]bool, g.NumNodes()+1)
		for v := 0; v < g.NumNodes(); v++ {
			p := s.Priority[v]
			if p < 1 || p > g.NumNodes() || seen[p] {
				t.Fatalf("trial %d: bad priority %d", trial, p)
			}
			seen[p] = true
		}
	}
}

// TestPrioritizeDeterministic guards against map-iteration order leaking
// into schedules: repeated runs must produce identical orders.
func TestPrioritizeDeterministic(t *testing.T) {
	for _, g := range []*dag.Frozen{
		workloads.Inspiral(40),
		workloads.Montage(10, 6),
		workloads.SDSS(100, 5),
	} {
		a := Prioritize(g).Order
		for rep := 0; rep < 3; rep++ {
			b := Prioritize(g).Order
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("rep %d: schedule diverged at %d", rep, i)
				}
			}
		}
	}
}
