package bitset

import "math/bits"

// MinSet is a dense bitset over [0, n) specialized for the simulation
// engine's eligible-set pattern: Add and PopMin (extract the minimum
// element) in amortized O(1), with zero steady-state allocations —
// Reset truncates and clears the word array in place.
//
// The minimum is located by scanning words from a hint that only moves
// backward when an Add inserts below it, so the total scan work across
// a run is O(n/64 + adds): each Add can force at most one re-scan of
// the words between the new element and the old hint, and forward
// progress is never repeated. This replaces a balanced-tree priority
// queue (O(log n) per op, one node allocation per insert) in the
// simulator's oblivious policies, where elements are unique ranks in
// [0, n) and only the minimum is ever removed.
type MinSet struct {
	words []uint64
	hint  int // no element below word index hint
	count int
}

// NewMinSet returns an empty MinSet over [0, n).
func NewMinSet(n int) *MinSet {
	s := &MinSet{}
	s.Reset(n)
	return s
}

// Reset empties the set and re-sizes it to [0, n), reusing the backing
// array when it is large enough. The word slice is hoisted to a local
// so the capacity test dominates the reslice and the clear loop — both
// compile without bounds checks, which also keeps callers that inline
// Reset free of inherited check sites.
//
//prio:nobce
//prio:inline
func (s *MinSet) Reset(n int) {
	w := (n + 63) / 64
	if w < 0 {
		// n below -63; the reslice would panic anyway, so the guard only
		// makes the failure explicit (and hands the prover w >= 0).
		panic("bitset: MinSet.Reset with negative size")
	}
	words := s.words
	if cap(words) < w {
		words = make([]uint64, w)
	} else {
		words = words[:w]
		for i := range words {
			words[i] = 0
		}
	}
	s.words = words
	s.hint = w
	s.count = 0
}

// Add inserts i. Adding an element already present is a no-op for set
// membership but must not happen when the caller relies on Len (the
// simulator's ranks are unique, so it never does).
//
// The explicit uint-compared range guard replaces the implicit bounds
// checks on the two word accesses: a negative or too-large i panics
// here just as it would on the indexing itself, and past the guard the
// compiler proves w in-bounds for both the load and the store.
//
//prio:nobce
//prio:inline
func (s *MinSet) Add(i int) {
	words := s.words
	w := uint(i) >> 6
	if w >= uint(len(words)) {
		panic("bitset: MinSet.Add out of range")
	}
	bit := uint64(1) << (uint(i) & 63)
	if words[w]&bit == 0 {
		s.count++
	}
	words[w] |= bit
	if int(w) < s.hint {
		s.hint = int(w)
	}
}

// PopMin removes and returns the smallest element, or ok=false when the
// set is empty.
//
// The word slice is hoisted to a local so the element store cannot be
// seen as aliasing the slice header, and the start index is clamped to
// zero: with 0 <= w < len(words) both provable, the scan compiles
// without bounds checks.
//
//prio:nobce
//prio:inline
func (s *MinSet) PopMin() (int, bool) {
	words := s.words
	w := s.hint
	if w < 0 {
		w = 0
	}
	for ; w < len(words); w++ {
		if word := words[w]; word != 0 {
			s.hint = w
			b := bits.TrailingZeros64(word)
			words[w] = word &^ (1 << uint(b))
			s.count--
			return w<<6 | b, true
		}
	}
	s.hint = len(words)
	return 0, false
}

// Len returns the number of elements.
func (s *MinSet) Len() int { return s.count }
