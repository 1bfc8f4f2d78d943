package dag

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
)

// Structural fingerprints and the transitive-reduction cache. The prio
// pipeline reduces the same graph several times per invocation (once in
// the heuristic's Divide phase, again in the theoretical algorithm, and
// once per policy in the simulator), and the reduction is one of the
// most expensive passes on the big paper dags. A fingerprint keyed
// cache lets every stage share one reduction.

// fingerprintSeed is fixed for the process so fingerprints are
// comparable across graphs (but not across processes; they are never
// persisted).
var fingerprintSeed = maphash.MakeSeed()

// Fingerprint returns a structural hash of the graph: node count, node
// names in index order, and every arc. Two graphs with equal
// fingerprints are equal with overwhelming probability, but callers
// that must not confuse distinct graphs should verify with StructuralEq
// (the ReduceCache does).
func (f *Frozen) Fingerprint() uint64 {
	var h maphash.Hash
	h.SetSeed(fingerprintSeed)
	// The byte stream is staged in a chunk buffer: one Write per few
	// kilobytes costs a fraction of one per 8-byte integer.
	var chunk [4096]byte
	buf := chunk[:0]
	reserve := func(k int) {
		if len(buf)+k > cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	writeInt := func(x int) {
		reserve(8)
		buf = binary.LittleEndian.AppendUint64(buf, uint64(x))
	}
	writeInt(f.NumNodes())
	for _, name := range f.names {
		reserve(len(name) + 1)
		if len(name) >= cap(buf) {
			h.WriteString(name)
			h.WriteByte(0)
			continue
		}
		buf = append(append(buf, name...), 0)
	}
	writeInt(f.numArcs)
	for u := 0; u < f.NumNodes(); u++ {
		writeInt(-u - 1) // delimiter: distinguishes adjacency boundaries
		for _, v := range f.Children(u) {
			writeInt(int(v))
		}
	}
	h.Write(buf)
	return h.Sum64()
}

// StructuralEq reports whether g and o have identical node names (in
// index order) and identical adjacency (including arc insertion order).
//
//prio:pure
func (f *Frozen) StructuralEq(o *Frozen) bool {
	if f == o {
		return true
	}
	if len(f.names) != len(o.names) || f.numArcs != o.numArcs {
		return false
	}
	for i, name := range f.names {
		if o.names[i] != name {
			return false
		}
	}
	for u := 0; u < f.NumNodes(); u++ {
		fu, ou := f.Children(u), o.Children(u)
		if len(fu) != len(ou) {
			return false
		}
		for i, v := range fu {
			if ou[i] != v {
				return false
			}
		}
	}
	return true
}

// ReduceCache memoizes transitive reductions by graph fingerprint. It
// is safe for concurrent use. Cached results are shared: callers must
// treat the returned graph and shortcut list as immutable, which the
// Frozen form guarantees for the graph and convention guarantees for
// the slice.
type ReduceCache struct {
	mu      sync.Mutex
	entries map[uint64]*reduceEntry // guarded by mu
}

type reduceEntry struct {
	source    *Frozen // the graph the reduction was computed from
	reduced   *Frozen
	shortcuts []Arc
}

// NewReduceCache returns an empty reduction cache.
func NewReduceCache() *ReduceCache {
	return &ReduceCache{entries: make(map[uint64]*reduceEntry)}
}

// TransitiveReductionCached is TransitiveReduction memoized through c.
// A nil cache degrades to the uncached computation. On a hit the
// returned graph and slice are shared with every other caller and must
// not be mutated. Fingerprint collisions are guarded by a structural
// comparison against the graph that populated the entry, so a hit is
// never wrong.
func (f *Frozen) TransitiveReductionCached(c *ReduceCache) (*Frozen, []Arc) {
	if c == nil {
		return f.TransitiveReduction()
	}
	fp := f.Fingerprint()
	c.mu.Lock()
	e, ok := c.entries[fp]
	c.mu.Unlock()
	if ok && f.StructuralEq(e.source) {
		return e.reduced, e.shortcuts
	}
	reduced, shortcuts := f.TransitiveReduction()
	c.mu.Lock()
	c.entries[fp] = &reduceEntry{source: f, reduced: reduced, shortcuts: shortcuts}
	c.mu.Unlock()
	return reduced, shortcuts
}
