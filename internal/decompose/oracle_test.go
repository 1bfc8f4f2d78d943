package decompose

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/dag"
)

// generalDecomposition is the pre-Section-3.5 design, kept as the
// oracle for both the fast path and the general round: every component
// is the smallest closure C(s) over the current sources (ties broken
// by the smallest source it holds), each C(s) computed from scratch by
// the paper's BFS-like closure. With crossCheck, every round also runs
// production's minimalClosure on the same remnant and fails unless it
// picks the same node set.
func generalDecomposition(tb testing.TB, g *dag.Frozen, crossCheck bool) *Result {
	d := newDecomposer(g, Options{})
	o := closureOracle{d: d}
	for round := 0; d.aliveCount > 0; round++ {
		sources := d.currentSources()
		nodes := o.minimalClosure(sources)
		if crossCheck {
			want, got := slices.Clone(nodes), slices.Clone(d.minimalClosure(sources))
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				tb.Fatalf("round %d: the SCC round picks %v, the per-source closures %v", round, got, want)
			}
		}
		d.detach(nodes, d.isBipartiteSet(nodes), false)
	}
	return d.finish()
}

// closureOracle computes every current source's closure with its own
// buffers.
type closureOracle struct {
	d                                   *decomposer
	closeBuf, bestBuf, srcQueue, tQueue []int
}

// minimalClosure computes the closure C(s) for every current source and
// returns the smallest (ties broken by the smallest source it holds).
func (o *closureOracle) minimalClosure(sources []int) []int {
	best, bestMin := o.bestBuf[:0], -1
	for _, s := range sources {
		c, minNode := o.closure(s, o.closeBuf[:0])
		if bestMin == -1 || len(c) < len(best) || (len(c) == len(best) && minNode < bestMin) {
			best, c, bestMin = c, best, minNode
		}
		o.closeBuf = c
	}
	o.bestBuf = best
	return best
}

// closure computes C(s) per the paper's BFS-like algorithm, appending
// its nodes to buf: S starts as {s}; children of S-jobs join T; parents
// of T-jobs join T; T-jobs that are sources of the remnant move to S;
// repeat to fixpoint. It also returns the smallest source in C(s).
func (o *closureOracle) closure(s int, buf []int) ([]int, int) {
	d := o.d
	nodes, minNode := append(buf, s), s
	d.inBlock[s] = true
	srcQueue := append(o.srcQueue[:0], s) // S jobs whose children still need expanding
	tQueue := o.tQueue[:0]                // T jobs whose parents still need expanding
	for len(srcQueue) > 0 || len(tQueue) > 0 {
		if len(srcQueue) > 0 {
			u := srcQueue[len(srcQueue)-1]
			srcQueue = srcQueue[:len(srcQueue)-1]
			for _, c := range d.g.Children(u) {
				if d.alive[c] && !d.inBlock[c] {
					d.inBlock[c] = true
					nodes = append(nodes, int(c))
					tQueue = append(tQueue, int(c))
				}
			}
			continue
		}
		t := tQueue[len(tQueue)-1]
		tQueue = tQueue[:len(tQueue)-1]
		// T members that are sources of the remnant behave as S members.
		if d.inAlive[t] == 0 {
			if t < minNode {
				minNode = t
			}
			srcQueue = append(srcQueue, t)
		}
		for _, p := range d.g.Parents(t) {
			if d.alive[p] && !d.inBlock[p] {
				d.inBlock[p] = true
				nodes = append(nodes, int(p))
				tQueue = append(tQueue, int(p))
			}
		}
	}
	for _, v := range nodes {
		d.inBlock[v] = false
	}
	o.srcQueue, o.tQueue = srcQueue, tQueue
	return nodes, minNode
}

// FuzzGeneralRound: on random crossed dags, where the fast path finds
// no block in many rounds, every round of the general decomposition
// must pick the same component from the strongly connected components
// as from the per-source closures: the same node set, so the same
// size-then-smallest-source tie-break.
func FuzzGeneralRound(f *testing.F) {
	f.Add(uint8(6), []byte{0x5b, 0x21})
	f.Add(uint8(14), []byte{0xa7, 0x3c, 0x91, 0x4e})
	f.Add(uint8(30), []byte{0x13, 0x88, 0x42, 0xf1, 0x07, 0x6d, 0xc0, 0x35})
	f.Fuzz(func(t *testing.T, size uint8, bits []byte) {
		g := crossedDag(int(size%48)+2, bits)
		checkInvariants(t, g, generalDecomposition(t, g, true))
	})
}

// crossedDag builds an n-node layered dag of width about sqrt(n) in
// which every node below the first layer has one parent straight above
// and, when its bit is set, another from one layer up and across. The
// crossings defeat the fast path, as in TestGeneralPathCrossed.
func crossedDag(n int, bits []byte) *dag.Frozen {
	if len(bits) == 0 {
		bits = []byte{0}
	}
	width := 1
	for (width+1)*(width+1) <= n {
		width++
	}
	b := dag.New()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprint("n", i))
	}
	for v := width; v < n; v++ {
		b.MustAddArc(v-width, v)
		w := bits[(v/8)%len(bits)]
		if w&(1<<(v%8)) != 0 {
			across := v - width - 1 - int(w)%(width+1)
			if across >= 0 && across != v-width {
				b.MustAddArc(across, v)
			}
		}
	}
	return b.MustFreeze()
}
