package dag

import (
	"fmt"
	"testing"
)

// shortcutArcsDFS is the per-node search ShortcutArcs replaced, kept as
// its oracle: for each node u, a DFS from u's children in topological
// order marks every descendant up to u's last child, and a child found
// already marked is a shortcut target.
func (f *Frozen) shortcutArcsDFS() []Arc {
	pos := f.pos
	n := f.NumNodes()
	cs, sorted, _ := f.childrenByPos()
	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	var stack []int32
	var shortcuts []Arc
	for u := 0; u < n; u++ {
		order := sorted[cs[u]:cs[u+1]]
		if len(order) < 2 {
			continue
		}
		maxPos := pos[order[len(order)-1]]
		stamp := int32(u)
		for _, c := range order {
			if visited[c] == stamp {
				shortcuts = append(shortcuts, Arc{u, int(c)})
				continue
			}
			visited[c] = stamp
			stack = append(stack[:0], c)
			for len(stack) > 0 {
				x := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, w := range sorted[cs[x]:cs[x+1]] {
					if pos[w] > maxPos {
						break
					}
					if visited[w] != stamp {
						visited[w] = stamp
						stack = append(stack, w)
					}
				}
			}
		}
	}
	sortArcs(shortcuts)
	return shortcuts
}

// FuzzShortcutArcs: on random small dags, ShortcutArcs must return
// exactly the shortcuts of the per-node DFS oracle. The bytes pick each
// forward arc u -> v (u < v in a shuffled declaration order), so the
// child lists arrive in no particular topological order.
func FuzzShortcutArcs(f *testing.F) {
	f.Add(uint8(3), []byte{0xff})                   // a -> b -> c plus a -> c
	f.Add(uint8(8), []byte{0x5a, 0xc3, 0x0f, 0xf0}) // sparse mix
	f.Add(uint8(12), []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Add(uint8(20), []byte{0x11, 0x22, 0x44, 0x88, 0x13, 0x37, 0x01, 0x80, 0xaa, 0x55})
	f.Fuzz(func(t *testing.T, size uint8, bits []byte) {
		g := fuzzDag(int(size%40)+1, bits)
		got, want := g.ShortcutArcs(), g.shortcutArcsDFS()
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("ShortcutArcs = %v, per-node DFS = %v", got, want)
		}
	})
}

// fuzzDag builds an n-node dag whose arcs follow a rank order derived
// from bits, so node indices are not a topological order; arc k of the
// n(n-1)/2 candidates is present when bit k (cycling through bits) is
// set.
func fuzzDag(n int, bits []byte) *Frozen {
	if len(bits) == 0 {
		bits = []byte{0}
	}
	rank := make([]int, n) // node declared at index i sits at rank[i]
	for i := range rank {
		rank[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(bits[i%len(bits)]) % (i + 1)
		rank[i], rank[j] = rank[j], rank[i]
	}
	byRank := make([]int, n)
	for v, r := range rank {
		byRank[r] = v
	}
	b := New()
	for i := 0; i < n; i++ {
		b.AddNode(fmt.Sprint("n", i))
	}
	k := 0
	for a := 0; a < n; a++ {
		for c := a + 1; c < n; c++ {
			if bits[(k/8)%len(bits)]&(1<<(k%8)) != 0 {
				b.MustAddArc(byRank[a], byRank[c])
			}
			k++
		}
	}
	return b.MustFreeze()
}
