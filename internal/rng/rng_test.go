package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d collisions between different seeds in 100 draws", same)
	}
}

func TestZeroSeedWorks(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("split streams collided %d times", same)
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBoundsAndUniformity(t *testing.T) {
	r := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		v := r.Intn(n)
		if v < 0 || v >= n {
			t.Fatalf("Intn out of range: %d", v)
		}
		counts[v]++
	}
	want := float64(draws) / n
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("Intn bucket %d count %d far from expected %v", v, c, want)
		}
	}
}

func TestIntnOne(t *testing.T) {
	r := New(6)
	for i := 0; i < 100; i++ {
		if r.Intn(1) != 0 {
			t.Fatal("Intn(1) must be 0")
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Intn(0)")
		}
	}()
	New(1).Intn(0)
}

func TestExpMoments(t *testing.T) {
	r := New(8)
	const n = 300000
	mean := 2.5
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Exp(mean)
		if x < 0 {
			t.Fatalf("Exp returned negative %v", x)
		}
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mean) > 0.03*mean {
		t.Fatalf("Exp mean = %v, want ~%v", m, mean)
	}
	// Var of Exp(mean) is mean^2.
	if math.Abs(v-mean*mean) > 0.1*mean*mean {
		t.Fatalf("Exp variance = %v, want ~%v", v, mean*mean)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for Exp(0)")
		}
	}()
	New(1).Exp(0)
}

func TestNormalMoments(t *testing.T) {
	r := New(9)
	const n = 300000
	mu, sigma := 1.0, 0.1
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := r.Normal(mu, sigma)
		sum += x
		sumSq += x * x
	}
	m := sum / n
	v := sumSq/n - m*m
	if math.Abs(m-mu) > 0.002 {
		t.Fatalf("Normal mean = %v, want ~%v", m, mu)
	}
	if math.Abs(v-sigma*sigma) > 0.001 {
		t.Fatalf("Normal variance = %v, want ~%v", v, sigma*sigma)
	}
}

func TestNormalTails(t *testing.T) {
	r := New(10)
	const n = 100000
	beyond3 := 0
	for i := 0; i < n; i++ {
		if math.Abs(r.Normal(0, 1)) > 3 {
			beyond3++
		}
	}
	// P(|Z|>3) ~ 0.0027; allow wide slack.
	if beyond3 < 100 || beyond3 > 600 {
		t.Fatalf("3-sigma tail count %d implausible for N(0,1)", beyond3)
	}
}

// normalRef is Normal as it was written before cos: the textbook
// Box-Muller line on math.Cos. Normal must match it bit for bit.
func normalRef(r *Source, mean, stddev float64) float64 {
	u1 := 1 - r.Float64()
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	return mean + stddev*z
}

// TestNormalMatchesReference holds Normal to normalRef over 10^7 draws
// from several seeds, at the paper's N(1, 0.1) and at N(0, 1), and
// holds cos to math.Cos within 1,000 ulps either side of every octant
// boundary k*Pi/4 of [0, 2*Pi], where the reduction switches polynomial
// and sign.
func TestNormalMatchesReference(t *testing.T) {
	const perSeed = 2_000_000
	for _, seed := range []uint64{1, 2, 3, 0xdeadbeef, 1 << 63} {
		a, b := New(seed), New(seed)
		for i := 0; i < perSeed; i++ {
			mean, sd := 1.0, 0.1
			if i&1 == 1 {
				mean, sd = 0, 1
			}
			got, want := a.Normal(mean, sd), normalRef(b, mean, sd)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %#x draw %d: Normal = %v (%#x), reference %v (%#x)",
					seed, i, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
	for k := 0; k <= 8; k++ {
		x0 := float64(k) * math.Pi / 4
		for d := -1000; d <= 1000; d++ {
			x := math.Float64frombits(uint64(int64(math.Float64bits(x0)) + int64(d)))
			if k == 0 {
				x = math.Float64frombits(uint64(d + 1000)) // [0, 2000 ulps]
			}
			if got, want := cos(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cos(%v) = %v, math.Cos = %v (octant boundary %d, %+d ulps)", x, got, want, k, d)
			}
		}
	}
}

// FuzzNormal checks Normal against normalRef from arbitrary seeds, and
// cos against math.Cos at an arbitrary angle in [0, 2*Pi).
func FuzzNormal(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), uint64(1)<<62)
	f.Add(uint64(42), ^uint64(0))
	f.Fuzz(func(t *testing.T, seed, angle uint64) {
		a, b := New(seed), New(seed)
		for i := 0; i < 256; i++ {
			if got, want := a.Normal(1, 0.1), normalRef(b, 1, 0.1); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d draw %d: Normal = %v, reference %v", seed, i, got, want)
			}
		}
		x := 2 * math.Pi * (float64(angle>>11) / (1 << 53))
		if got, want := cos(x), math.Cos(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("cos(%v) = %v, math.Cos = %v", x, got, want)
		}
	})
}

func TestPermIsPermutation(t *testing.T) {
	r := New(11)
	for n := 0; n <= 20; n++ {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShufflePreservesMultiset(t *testing.T) {
	r := New(12)
	xs := []int{5, 5, 1, 9, 2, 2, 2}
	sum := 0
	for _, x := range xs {
		sum += x
	}
	r.Shuffle(xs)
	got := 0
	for _, x := range xs {
		got += x
	}
	if got != sum {
		t.Fatalf("Shuffle changed contents: %v", xs)
	}
}

func TestPermUniformity(t *testing.T) {
	// All 6 permutations of 3 elements should appear roughly equally.
	r := New(13)
	counts := map[[3]int]int{}
	const draws = 60000
	for i := 0; i < draws; i++ {
		p := r.Perm(3)
		counts[[3]int{p[0], p[1], p[2]}]++
	}
	if len(counts) != 6 {
		t.Fatalf("saw %d distinct permutations, want 6", len(counts))
	}
	for p, c := range counts {
		if c < draws/6-800 || c > draws/6+800 {
			t.Fatalf("permutation %v count %d far from %d", p, c, draws/6)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Normal(1, 0.1)
	}
}

// BenchmarkNormalRef times normalRef, the math.Cos form Normal
// replaced, for comparison with BenchmarkNormal.
func BenchmarkNormalRef(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = normalRef(r, 1, 0.1)
	}
}

func BenchmarkExp(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Exp(16)
	}
}
