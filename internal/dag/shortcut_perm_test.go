package dag_test

import (
	"fmt"
	"sort"
	"testing"

	"repro/internal/dag"
	"repro/internal/rng"
	"repro/internal/workloads"
)

// permuted returns g with its nodes declared in a seeded random order,
// each node's arcs declared with it, as a hand-written or
// tool-generated DAGMan file might list them, and the new id of every
// old node.
func permuted(g *dag.Frozen, src *rng.Source) (*dag.Frozen, []int) {
	n := g.NumNodes()
	perm := src.Perm(n)
	pos := make([]int, n)
	b := dag.NewWithCapacity(n)
	for i, old := range perm {
		pos[old] = i
		b.AddNode(g.Name(old))
	}
	for _, old := range perm {
		for _, c := range g.Children(old) {
			b.MustAddArc(pos[old], pos[c])
		}
	}
	return b.MustFreeze(), pos
}

// paperDags returns the four paper dags by name.
func paperDags() map[string]*dag.Frozen {
	return map[string]*dag.Frozen{
		"airsn":    workloads.PaperAIRSN(),
		"inspiral": workloads.PaperInspiral(),
		"montage":  workloads.PaperMontage(),
		"sdss":     workloads.PaperSDSS(),
	}
}

// TestShortcutArcsUnderPermutation: the shortcut set is a property of
// the dag, not of the order its jobs are declared in. For the paper
// dags and random dags, the shortcuts of a seeded node permutation must
// be exactly the permuted image of the generator-order shortcuts.
func TestShortcutArcsUnderPermutation(t *testing.T) {
	gs := paperDags()
	r := rng.New(41)
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(50)
		b := dag.New()
		for i := 0; i < n; i++ {
			b.AddNode(fmt.Sprint("n", i))
		}
		p := 0.05 + 0.4*r.Float64()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if r.Float64() < p {
					b.MustAddArc(u, v)
				}
			}
		}
		gs[fmt.Sprint("random ", trial)] = b.MustFreeze()
	}
	src := rng.New(61)
	names := make([]string, 0, len(gs))
	for name := range gs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		g := gs[name]
		pg, pos := permuted(g, src.Split())
		want := g.ShortcutArcs()
		image := make([]dag.Arc, len(want))
		for i, a := range want {
			image[i] = dag.Arc{From: pos[a.From], To: pos[a.To]}
		}
		sort.Slice(image, func(i, j int) bool {
			if image[i].From != image[j].From {
				return image[i].From < image[j].From
			}
			return image[i].To < image[j].To
		})
		if got := pg.ShortcutArcs(); fmt.Sprint(got) != fmt.Sprint(image) {
			t.Fatalf("%s: permuted dag has %d shortcuts, the permuted image of the generator-order set has %d", name, len(got), len(image))
		}
		if name == "montage" && len(want) != 1296 {
			t.Fatalf("montage has %d shortcuts, want 1296", len(want))
		}
	}
}

// BenchmarkShortcutArcs times Step 1's shortcut search on the paper dags
// with their jobs declared in a seeded random order, as in a DAGMan
// file not written by the generator: child lists then arrive in no
// particular topological order, and SDSS and Montage have nodes with
// thousands of children.
func BenchmarkShortcutArcs(b *testing.B) {
	gs := paperDags()
	src := rng.New(61)
	for _, name := range workloads.Names() {
		g, _ := permuted(gs[name], src.Split())
		b.Run(name+"/permuted", func(b *testing.B) {
			b.ReportAllocs()
			var n int
			for i := 0; i < b.N; i++ {
				n = len(g.ShortcutArcs())
			}
			b.ReportMetric(float64(n), "shortcuts")
		})
	}
}
