package main

import "testing"

// Regression test for a map-order fix: the Fig. 2 block report used
// to range over a map, so its line order varied between runs. The
// blocks must come back in the fixed declaration order every time.
func TestFig2BlocksDeterministicOrder(t *testing.T) {
	want := []string{"(2,2)-W", "(2,5)-M", "4-N", "4-Cycle", "3-Clique"}
	for run := 0; run < 3; run++ {
		blocks := fig2Blocks()
		if len(blocks) != len(want) {
			t.Fatalf("got %d blocks, want %d", len(blocks), len(want))
		}
		for i, blk := range blocks {
			if blk.name != want[i] {
				t.Fatalf("run %d: block %d = %q, want %q", run, i, blk.name, want[i])
			}
			if blk.g == nil || blk.g.NumNodes() == 0 {
				t.Fatalf("block %q has an empty graph", blk.name)
			}
		}
	}
}
