package bitset

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Count() != 0 {
		t.Fatalf("Count = %d, want 0", s.Count())
	}
	if s.Cap() != 100 {
		t.Fatalf("Cap = %d, want 100", s.Cap())
	}
}

func TestNewZero(t *testing.T) {
	s := New(0)
	if s.Count() != 0 || s.Cap() != 0 {
		t.Fatal("zero-capacity set should be empty")
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for negative capacity")
		}
	}()
	New(-1)
}

func TestAddContainsRemove(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("Contains(%d) before Add", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("!Contains(%d) after Add", i)
		}
	}
	if got := s.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	if got := s.Count(); got != 7 {
		t.Fatalf("Count = %d, want 7", got)
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if s.Count() != 1 {
		t.Fatalf("Count = %d, want 1", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, f := range []func(){
		func() { s.Add(10) },
		func() { s.Add(-1) },
		func() { s.Contains(10) },
		func() { s.Remove(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic on out-of-range index")
				}
			}()
			f()
		}()
	}
}

func TestSetAlgebra(t *testing.T) {
	u, b := New(200), New(200)
	for i := 0; i < 200; i += 2 {
		u.Add(i) // evens
	}
	for i := 0; i < 200; i += 3 {
		b.Add(i) // multiples of 3
	}
	u.UnionWith(b)
	for i := 0; i < 200; i++ {
		if u.Contains(i) != (i%2 == 0 || i%3 == 0) {
			t.Fatalf("union wrong at %d", i)
		}
	}
}

func TestCapacityMismatchPanics(t *testing.T) {
	a, b := New(10), New(20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on capacity mismatch")
		}
	}()
	a.UnionWith(b)
}

func TestForEachOrderAndEarlyStop(t *testing.T) {
	s := New(300)
	want := []int{0, 7, 63, 64, 128, 299}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) bool {
		got = append(got, i)
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %d elements, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach order: got %v, want %v", got, want)
		}
	}
	count := 0
	s.ForEach(func(int) bool {
		count++
		return count < 3
	})
	if count != 3 {
		t.Fatalf("early stop visited %d, want 3", count)
	}
}

func TestNext(t *testing.T) {
	s := New(200)
	s.Add(5)
	s.Add(64)
	s.Add(150)
	cases := []struct{ from, want int }{
		{-5, 5}, {0, 5}, {5, 5}, {6, 64}, {64, 64}, {65, 150}, {150, 150}, {151, -1}, {200, -1}, {1000, -1},
	}
	for _, c := range cases {
		if got := s.Next(c.from); got != c.want {
			t.Errorf("Next(%d) = %d, want %d", c.from, got, c.want)
		}
	}
}

func TestNextEmpty(t *testing.T) {
	if got := New(100).Next(0); got != -1 {
		t.Fatalf("Next on empty = %d, want -1", got)
	}
}

func TestString(t *testing.T) {
	s := New(10)
	if got := s.String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
	s.Add(3)
	s.Add(7)
	if got := s.String(); got != "{3, 7}" {
		t.Fatalf("String = %q, want {3, 7}", got)
	}
}

// Property: Count equals the number of distinct inserted elements.
func TestQuickCountMatchesDistinct(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(1 << 16)
		seen := map[int]bool{}
		for _, r := range raw {
			s.Add(int(r))
			seen[int(r)] = true
		}
		return s.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: De Morgan-ish identity |A∪B| = |A| + |B| - |A∩B|.
func TestQuickInclusionExclusion(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		a, b := New(1<<16), New(1<<16)
		for _, x := range xs {
			a.Add(int(x))
		}
		for _, y := range ys {
			b.Add(int(y))
		}
		u := New(1 << 16)
		u.UnionWith(a)
		u.UnionWith(b)
		both := 0
		a.ForEach(func(x int) bool {
			if b.Contains(x) {
				both++
			}
			return true
		})
		return u.Count() == a.Count()+b.Count()-both
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: iteration visits exactly the contained elements, ascending.
func TestQuickForEachAscending(t *testing.T) {
	f := func(xs []uint16) bool {
		s := New(1 << 16)
		for _, x := range xs {
			s.Add(int(x))
		}
		prev := -1
		ok := true
		s.ForEach(func(i int) bool {
			if i <= prev || !s.Contains(i) {
				ok = false
				return false
			}
			prev = i
			return true
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddDense(b *testing.B) {
	s := New(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Add(i & (1<<16 - 1))
	}
}

func BenchmarkUnionWith(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	a, c := New(1<<16), New(1<<16)
	for i := 0; i < 1<<12; i++ {
		a.Add(r.Intn(1 << 16))
		c.Add(r.Intn(1 << 16))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.UnionWith(c)
	}
}
