// Package rng implements a small, deterministic pseudo-random number
// generator used by the grid simulator. Simulations must be exactly
// reproducible across runs and across machines, and replications must be
// statistically independent when executed in parallel, so we implement
// xoshiro256++ seeded through splitmix64 rather than relying on the
// process-global math/rand state.
//
// A Source allocates nothing after New: Reseed resets it in place and
// every draw updates its four state words, so the simulator reseeds one
// pooled Source per replication at zero allocations (the simulator's
// TestRunKernelZeroAllocs measures this on every row).
package rng

import "math"

// Source is a xoshiro256++ generator. It is not safe for concurrent use;
// give each goroutine its own Source (see Split).
type Source struct {
	s [4]uint64
}

// splitmix64 advances the seeding state and returns the next output. It is
// the recommended seeder for the xoshiro family: it guarantees that the
// four state words are well distributed even for small seeds.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from the given seed. Distinct seeds yield
// independent-looking streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets r in place to the exact state New(seed) would produce,
// without allocating. The simulation engine keeps one Source per worker
// and reseeds it for each replication, so the hot path never allocates
// a generator while every replication still sees the stream its
// pre-derived seed defines.
func (r *Source) Reseed(seed uint64) {
	x := seed
	for i := range r.s {
		r.s[i] = splitmix64(&x)
	}
	// The all-zero state is a fixed point of xoshiro; splitmix64 cannot
	// produce four zero outputs in a row, but guard anyway.
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		r.s[0] = 0x9e3779b97f4a7c15
	}
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *Source) Uint64() uint64 {
	s := &r.s
	result := rotl(s[0]+s[3], 23) + s[0]
	t := s[1] << 17
	s[2] ^= s[0]
	s[3] ^= s[1]
	s[1] ^= s[2]
	s[0] ^= s[3]
	s[2] ^= t
	s[3] = rotl(s[3], 45)
	return result
}

// Split derives a new independent Source from r. The derived stream is
// seeded from fresh output of r, so repeated Splits give distinct streams;
// this is how the experiment driver hands one Source to each replication.
func (r *Source) Split() *Source {
	return New(r.Uint64())
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Source) Float64() float64 {
	// 53 high-quality bits into the mantissa.
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// simple modulo rejection keeps exact uniformity.
	bound := uint64(n)
	limit := -bound % bound // = 2^64 mod n
	for {
		v := r.Uint64()
		if v >= limit {
			return int(v % bound)
		}
	}
}

// Exp returns an exponentially distributed float64 with the given mean
// (rate 1/mean), via inversion. mean must be > 0.
func (r *Source) Exp(mean float64) float64 {
	if mean <= 0 {
		panic("rng: Exp with non-positive mean")
	}
	// 1-Float64() is in (0,1], avoiding log(0).
	return -mean * math.Log(1-r.Float64())
}

// Normal returns a normally distributed float64 with the given mean and
// standard deviation, via the Box-Muller transform, one draw per call.
// The simulator is RNG-bound here: in CPU profiles of
// BenchmarkRunKernel/sdss on math.Cos, Normal was 41% (fifo) to 61%
// (prio) of the replication. The transform itself is fixed, because
// any other one (polar, ziggurat, or keeping Box-Muller's second draw)
// maps the same Source state to different values, which changes every
// simulated duration and so every golden the simulator is held to.
// What can change is how a term is computed, as long as its bits do
// not: the cosine is cos below, math.Cos's algorithm without its octant
// branches. math.Log stays: a pure-Go copy of its algorithm measured
// 16.5-16.8 ns per call against 10.7-14.2 ns for math.Log, which is
// assembly on amd64.
func (r *Source) Normal(mean, stddev float64) float64 {
	u1 := 1 - r.Float64() // (0,1]
	u2 := r.Float64()
	z := math.Sqrt(-2*math.Log(u1)) * cos(2*math.Pi*u2)
	return mean + stddev*z
}

// cos returns math.Cos(x), bit for bit, for x in [0, 2*Pi]: the same
// Cody-Waite reduction into octants and the same two Cephes
// polynomials, every operation in the same order. Where math.Cos
// branches on the octant to pick the sine or cosine polynomial and the
// sign, cos evaluates both polynomials and selects with bit masks. For
// Box-Muller's uniform angle the octant is a coin flip the branch
// predictor loses, and a misprediction costs more than the second
// polynomial. The domain skips math.Cos's NaN, Inf, negative and
// huge-argument cases, which a uniform angle never reaches.
func cos(x float64) float64 {
	const (
		pi4A = 7.85398125648498535156e-1  // Pi/4 split into three parts
		pi4B = 3.77489470793079817668e-8  //
		pi4C = 2.69515142907905952645e-15 //

		sin0 = 1.58962301576546568060e-10
		sin1 = -2.50507477628578072866e-8
		sin2 = 2.75573136213857245213e-6
		sin3 = -1.98412698295895385996e-4
		sin4 = 8.33333333332211858878e-3
		sin5 = -1.66666666666666307295e-1

		cos0 = -1.13585365213876817300e-11
		cos1 = 2.08757008419747316778e-9
		cos2 = -2.75573141792967388112e-7
		cos3 = 2.48015872888517045348e-5
		cos4 = -1.38888888888730564116e-3
		cos5 = 4.16666666666665929218e-2
	)
	j := uint64(x * (4 / math.Pi)) // integer part of x/(Pi/4)
	j += j & 1                     // map zeros to origin
	y := float64(j)
	z := ((x - y*pi4A) - y*pi4B) - y*pi4C // extended precision modular arithmetic
	j &= 7                                // octant 0, 2, 4 or 6
	zz := z * z
	s := z + z*zz*((((((sin0*zz)+sin1)*zz+sin2)*zz+sin3)*zz+sin4)*zz+sin5)
	c := 1.0 - 0.5*zz + zz*zz*((((((cos0*zz)+cos1)*zz+cos2)*zz+cos3)*zz+cos4)*zz+cos5)
	// Octants 2 and 6 take the sine polynomial, 2 and 4 are negated.
	useSin := -(j >> 1 & 1)
	b := math.Float64bits(s)&useSin | math.Float64bits(c)&^useSin
	b ^= ((j + 2) >> 2 & 1) << 63
	return math.Float64frombits(b)
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Shuffle permutes xs in place.
func (r *Source) Shuffle(xs []int) {
	for i := len(xs) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		xs[i], xs[j] = xs[j], xs[i]
	}
}
