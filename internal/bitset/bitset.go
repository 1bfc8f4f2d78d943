// Package bitset provides a dense, fixed-capacity bit set used throughout
// the scheduler for reachability computations, visited marks, and set
// algebra over job indices. It is deliberately minimal: the scheduler knows
// the universe size (the number of jobs) up front, so the set never grows.
//
// MinSet, the simulator's eligible set, allocates nothing in steady
// state: once its word array has grown to the set's size, Reset reuses
// it and Add, PopMin and Len work in place. TestMinSetResetReuses pins
// that at 0 allocations, and the simulator's TestRunKernelZeroAllocs
// measures it again under every policy that keeps a MinSet.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a dense bit set over the universe [0, Cap()). The zero value is an
// empty set of capacity zero; use New to allocate a set with capacity.
type Set struct {
	words []uint64
	n     int // capacity in bits
}

// New returns an empty set with capacity for n bits. n must be >= 0.
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Cap returns the capacity (the size of the universe) of the set.
func (s *Set) Cap() int { return s.n }

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add inserts i into the set.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove deletes i from the set.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether i is in the set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Clear removes all elements, keeping capacity.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Clone returns an independent copy of the set.
func (s *Set) Clone() *Set {
	c := &Set{words: make([]uint64, len(s.words)), n: s.n}
	copy(c.words, s.words)
	return c
}

// CopyFrom makes s an exact copy of o. The two sets must have equal capacity.
func (s *Set) CopyFrom(o *Set) {
	s.mustMatch(o)
	copy(s.words, o.words)
}

func (s *Set) mustMatch(o *Set) {
	if s.n != o.n {
		panic(fmt.Sprintf("bitset: capacity mismatch %d vs %d", s.n, o.n))
	}
}

// UnionWith adds every element of o to s (s |= o).
func (s *Set) UnionWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] |= w
	}
}

// IntersectWith removes from s every element not in o (s &= o).
func (s *Set) IntersectWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &= w
	}
}

// DifferenceWith removes every element of o from s (s &^= o).
func (s *Set) DifferenceWith(o *Set) {
	s.mustMatch(o)
	for i, w := range o.words {
		s.words[i] &^= w
	}
}

// Intersects reports whether s and o share at least one element.
func (s *Set) Intersects(o *Set) bool {
	s.mustMatch(o)
	for i, w := range o.words {
		if s.words[i]&w != 0 {
			return true
		}
	}
	return false
}

// SubsetOf reports whether every element of s is in o.
func (s *Set) SubsetOf(o *Set) bool {
	s.mustMatch(o)
	for i, w := range s.words {
		if w&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and o contain exactly the same elements.
func (s *Set) Equal(o *Set) bool {
	if s.n != o.n {
		return false
	}
	for i, w := range s.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// ForEach calls f for every element of the set in increasing order. If f
// returns false, iteration stops early.
func (s *Set) ForEach(f func(i int) bool) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			if !f(wi*wordBits + b) {
				return
			}
			w &= w - 1
		}
	}
}

// Elements returns the elements in increasing order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// Next returns the smallest element >= i, or -1 if there is none.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// String renders the set as {e1, e2, ...} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) bool {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
		return true
	})
	b.WriteByte('}')
	return b.String()
}
