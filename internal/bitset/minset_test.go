package bitset

import (
	"sort"
	"testing"
)

func TestMinSetBasic(t *testing.T) {
	s := NewMinSet(200)
	if _, ok := s.PopMin(); ok {
		t.Fatal("empty set popped a value")
	}
	for _, x := range []int{100, 3, 199, 0, 64, 63} {
		s.Add(x)
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	for _, want := range []int{0, 3, 63, 64, 100, 199} {
		got, ok := s.PopMin()
		if !ok || got != want {
			t.Fatalf("PopMin = %d,%v want %d", got, ok, want)
		}
	}
	if _, ok := s.PopMin(); ok {
		t.Fatal("drained set popped a value")
	}
	if s.Len() != 0 {
		t.Fatalf("Len = %d after drain", s.Len())
	}
}

// TestMinSetHintBacktrack exercises the pattern that makes the hint
// subtle: pop past a region, then add below the hint again.
func TestMinSetHintBacktrack(t *testing.T) {
	s := NewMinSet(1024)
	s.Add(900)
	if got, _ := s.PopMin(); got != 900 {
		t.Fatalf("got %d", got)
	}
	s.Add(5) // below the advanced hint
	got, ok := s.PopMin()
	if !ok || got != 5 {
		t.Fatalf("PopMin after backtrack = %d,%v want 5", got, ok)
	}
	// Interleave adds/pops around word boundaries.
	var live []int
	add := func(x int) { s.Add(x); live = append(live, x) }
	pop := func() {
		sort.Ints(live)
		got, ok := s.PopMin()
		if !ok || got != live[0] {
			t.Fatalf("PopMin = %d,%v want %d (live %v)", got, ok, live[0], live)
		}
		live = live[1:]
	}
	add(64)
	add(128)
	pop()
	add(63)
	add(1023)
	pop()
	pop()
	pop()
	if _, ok := s.PopMin(); ok {
		t.Fatal("set should be empty")
	}
}

func TestMinSetResetReuses(t *testing.T) {
	s := NewMinSet(4096)
	for i := 0; i < 4096; i += 7 {
		s.Add(i)
	}
	s.Reset(4096)
	if s.Len() != 0 {
		t.Fatalf("Len after Reset = %d", s.Len())
	}
	if _, ok := s.PopMin(); ok {
		t.Fatal("Reset left elements behind")
	}
	s.Add(4095)
	if got, _ := s.PopMin(); got != 4095 {
		t.Fatalf("got %d", got)
	}
	// Shrinking reset.
	s.Reset(64)
	s.Add(63)
	if got, _ := s.PopMin(); got != 63 {
		t.Fatalf("got %d after shrink", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		s.Reset(4096)
		s.Add(11)
		s.Len()
		s.PopMin()
	})
	if allocs != 0 {
		t.Fatalf("steady-state Reset/Add/Len/PopMin allocates %.1f times", allocs)
	}
}

// TestMinSetVersusSort drives a randomized interleaving against a
// sorted-slice oracle.
func TestMinSetVersusSort(t *testing.T) {
	s := NewMinSet(10000)
	seen := make(map[int]bool)
	var live []int
	rng := uint64(12345)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int((rng >> 33) % uint64(n))
	}
	for step := 0; step < 20000; step++ {
		if len(live) == 0 || next(10) < 6 {
			x := next(10000)
			if seen[x] {
				continue
			}
			seen[x] = true
			s.Add(x)
			live = append(live, x)
		} else {
			sort.Ints(live)
			got, ok := s.PopMin()
			if !ok || got != live[0] {
				t.Fatalf("step %d: PopMin = %d,%v want %d", step, got, ok, live[0])
			}
			seen[got] = false
			live = live[1:]
		}
	}
}
