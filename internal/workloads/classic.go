package workloads

import (
	"fmt"

	"repro/internal/dag"
)

// The paper's conclusion calls for "further simulations ... on a broad
// repertoire of other dags". This file provides the classic computation
// dags of the underlying scheduling theory — meshes (Rosenberg's
// IC-scheduling of mesh-structured computations), reduction and
// expansion trees, butterflies/FFT, and pyramids (Rosenberg &
// Yurkewych's "common computation-dags") — so the evaluation can extend
// to exactly the structures the theory was built around.

// Mesh builds the 2-dimensional evolving mesh of order n: nodes (i, j)
// with 0 <= i, j < n and arcs (i,j) -> (i+1,j) and (i,j) -> (i,j+1).
// n^2 jobs; the single source is (0,0).
func Mesh(n int) *dag.Frozen {
	if n < 1 {
		panic(fmt.Sprintf("workloads: Mesh order %d < 1", n))
	}
	g := dag.NewWithCapacity(n * n)
	id := func(i, j int) int { return i*n + j }
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			g.AddNode(fmt.Sprintf("m%d.%d", i, j))
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i+1 < n {
				g.MustAddArc(id(i, j), id(i+1, j))
			}
			if j+1 < n {
				g.MustAddArc(id(i, j), id(i, j+1))
			}
		}
	}
	return g.MustFreeze()
}

// ReductionTree builds the complete binary in-tree of the given height:
// 2^(h+1)-1 jobs, 2^h leaves (the sources), one root (the sink) — the
// shape of parallel reductions.
func ReductionTree(height int) *dag.Frozen {
	if height < 0 {
		panic(fmt.Sprintf("workloads: ReductionTree height %d < 0", height))
	}
	n := 1<<(height+1) - 1
	g := dag.NewWithCapacity(n)
	for i := 0; i < n; i++ {
		g.AddNode(fmt.Sprintf("t%d", i))
	}
	// heap numbering: node i has children 2i+1, 2i+2 in the tree; arcs
	// run child -> parent (reduction).
	for i := 0; i < n; i++ {
		if 2*i+1 < n {
			g.MustAddArc(2*i+1, i)
		}
		if 2*i+2 < n {
			g.MustAddArc(2*i+2, i)
		}
	}
	return g.MustFreeze()
}

// ExpansionTree builds the complete binary out-tree of the given
// height — ReductionTree with every arc reversed (the shape of parallel
// divides).
func ExpansionTree(height int) *dag.Frozen {
	return ReductionTree(height).Reverse()
}

// Butterfly builds the d-dimensional FFT/butterfly dag: d+1 ranks of
// 2^d jobs; the job at (rank r, position p) feeds positions p and
// p XOR 2^r at rank r+1. (d+1) * 2^d jobs.
func Butterfly(d int) *dag.Frozen {
	if d < 1 {
		panic(fmt.Sprintf("workloads: Butterfly dimension %d < 1", d))
	}
	width := 1 << d
	g := dag.NewWithCapacity((d + 1) * width)
	id := func(rank, pos int) int { return rank*width + pos }
	for r := 0; r <= d; r++ {
		for p := 0; p < width; p++ {
			g.AddNode(fmt.Sprintf("f%d.%d", r, p))
		}
	}
	for r := 0; r < d; r++ {
		for p := 0; p < width; p++ {
			g.MustAddArc(id(r, p), id(r+1, p))
			g.MustAddArc(id(r, p), id(r+1, p^(1<<r)))
		}
	}
	return g.MustFreeze()
}

// Pyramid builds the 2-dimensional pyramid dag of the given height:
// levels of (h+1-l)^2 jobs; the job at (l, i, j) is fed by the four
// jobs (l-1, i..i+1, j..j+1) of the level below. The base is the
// source level; the apex is the sink.
func Pyramid(height int) *dag.Frozen {
	if height < 0 {
		panic(fmt.Sprintf("workloads: Pyramid height %d < 0", height))
	}
	g := dag.New()
	ids := make([][][]int, height+1)
	for l := 0; l <= height; l++ {
		side := height + 1 - l
		ids[l] = make([][]int, side)
		for i := 0; i < side; i++ {
			ids[l][i] = make([]int, side)
			for j := 0; j < side; j++ {
				ids[l][i][j] = g.AddNode(fmt.Sprintf("p%d.%d.%d", l, i, j))
			}
		}
	}
	for l := 1; l <= height; l++ {
		side := height + 1 - l
		for i := 0; i < side; i++ {
			for j := 0; j < side; j++ {
				for di := 0; di <= 1; di++ {
					for dj := 0; dj <= 1; dj++ {
						g.MustAddArc(ids[l-1][i+di][j+dj], ids[l][i][j])
					}
				}
			}
		}
	}
	return g.MustFreeze()
}

// ClassicNames lists the repertoire generators for harness loops.
func ClassicNames() []string {
	return []string{"mesh", "reduction", "expansion", "butterfly", "pyramid"}
}

// ClassicByName builds a repertoire dag by name at a small default size
// scaled for simulation studies.
func ClassicByName(name string) (*dag.Frozen, error) {
	switch name {
	case "mesh":
		return Mesh(24), nil
	case "reduction":
		return ReductionTree(8), nil
	case "expansion":
		return ExpansionTree(8), nil
	case "butterfly":
		return Butterfly(6), nil
	case "pyramid":
		return Pyramid(14), nil
	default:
		return nil, fmt.Errorf("workloads: unknown classic dag %q", name)
	}
}
