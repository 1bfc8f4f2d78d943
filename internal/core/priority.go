package core

import (
	"strconv"

	"repro/internal/bitset"
)

// PriorityR returns the largest r such that Ci has r-priority over Cj
// (Section 3.1, Steps 4-5), given the components' eligibility profiles:
// ei[x] is the number of eligible jobs of Ci after executing the first x
// non-sinks of its schedule, and likewise ej. The value is
//
//	min over x in [0,si], y in [0,sj] of
//	    ( ei[min(si,x+y)] + ej[(x+y)-min(si,x+y)] ) / ( ei[x] + ej[y] )
//
// — the worst-case fraction of the eligible jobs an arbitrary split
// (x, y) could have produced that the "Ci first" schedule retains. The
// result always lies in [0, 1]: the splits with y = 0 make the two sides
// equal, so the minimum never exceeds 1.
func PriorityR(ei, ej []int) float64 {
	si, sj := len(ei)-1, len(ej)-1
	if si < 0 || sj < 0 {
		panic("core: empty eligibility profile")
	}
	r := 1.0
	for x := 0; x <= si; x++ {
		for y := 0; y <= sj; y++ {
			den := ei[x] + ej[y]
			if den <= 0 {
				continue
			}
			t := x + y
			a := t
			if a > si {
				a = si
			}
			num := ei[a] + ej[t-a]
			if v := float64(num) / float64(den); v < r {
				r = v
			}
		}
	}
	return r
}

// profileTable interns eligibility profiles and caches pairwise
// priorities between them. Real decompositions contain thousands of
// structurally identical components (SDSS's parallel chains), so keying
// the Combine phase by interned profile rather than by component
// collapses the pairwise priority work to the handful of distinct
// shapes.
//
// The pairwise cache is a dense matrix with a bitset of computed cells
// per row: profile ids are small dense integers, so r(i, j) is two
// slice indexes and one bit test instead of hashing a map key on every
// Combine comparison. A profileTable is not safe for concurrent use; it
// lives for one pipeline invocation.
type profileTable struct {
	ids      map[string]int
	key      []byte // scratch: the key being looked up
	profiles [][]int
	// rVals[i][j] caches PriorityR(profiles[i], profiles[j]);
	// rDone[i].Contains(j) marks the cells that have been computed.
	// Both are (re)sized by growR the first time r is called after new
	// profiles were interned.
	rVals [][]float64
	rDone []*bitset.Set
}

func newProfileTable() *profileTable {
	return &profileTable{ids: make(map[string]int)}
}

// intern returns a stable id for the profile, assigning a new one on
// first sight. Only a new profile allocates.
func (pt *profileTable) intern(profile []int) int {
	pt.key = appendProfileKey(pt.key[:0], profile)
	if id, ok := pt.ids[string(pt.key)]; ok {
		return id
	}
	id := len(pt.profiles)
	pt.ids[string(pt.key)] = id
	pt.profiles = append(pt.profiles, append([]int(nil), profile...))
	return id
}

// r returns PriorityR between two interned profiles, cached.
func (pt *profileTable) r(i, j int) float64 {
	if len(pt.rDone) != len(pt.profiles) {
		pt.growR()
	}
	if pt.rDone[i].Contains(j) {
		return pt.rVals[i][j]
	}
	v := PriorityR(pt.profiles[i], pt.profiles[j])
	pt.rVals[i][j] = v
	pt.rDone[i].Add(j)
	return v
}

// numProfiles returns the number of distinct interned profiles.
func (pt *profileTable) numProfiles() int { return len(pt.profiles) }

// growR resizes the dense pairwise cache to the current profile count,
// preserving already-computed cells. In the pipeline all interning
// happens before the first r call, so this runs once.
func (pt *profileTable) growR() {
	n := len(pt.profiles)
	vals := make([][]float64, n)
	done := make([]*bitset.Set, n)
	for i := 0; i < n; i++ {
		vals[i] = make([]float64, n)
		done[i] = bitset.New(n)
		if i < len(pt.rVals) {
			copy(vals[i], pt.rVals[i])
			pt.rDone[i].ForEach(func(j int) bool { done[i].Add(j); return true })
		}
	}
	pt.rVals, pt.rDone = vals, done
}

// appendProfileKey appends the profile's entries to dst in hex, each
// followed by a comma.
func appendProfileKey(dst []byte, profile []int) []byte {
	for _, v := range profile {
		dst = strconv.AppendInt(dst, int64(v), 16)
		dst = append(dst, ',')
	}
	return dst
}
