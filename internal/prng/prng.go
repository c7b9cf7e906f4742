// Package prng provides a small, deterministic pseudo-random number
// generator used throughout the library.
//
// Reproducibility is a first-class requirement for this reproduction: every
// eval scenario must produce identical numbers across runs, Go versions, and
// platforms. The standard library's math/rand does not promise a stable
// value stream across Go releases, so we implement xoshiro256++ (Blackman &
// Vigna) seeded through splitmix64, which is fully specified, fast, and
// passes the usual statistical batteries.
//
// A Source is not safe for concurrent use; derive independent streams with
// Split when parallelism is needed. Every draw writes the Source's state, so
// each Source is padded to cache lines of its own: workers that draw from
// sibling substreams never write to a shared line.
package prng

import "math"

// Source is a deterministic xoshiro256++ random number generator.
// The zero value is not usable; construct with New.
//
// Every draw writes the state fields, and the chunked stages hand sibling
// substreams, allocated back to back by a Splitter, to different workers.
// The padding puts at least 64 bytes, a cache line, after the state, so two
// Sources never share a line at any alignment, and it makes a Source 128
// bytes, a size class whose heap objects sit on line pairs of their own.
// Without it, two workers drawing from neighbouring substreams keep stealing
// each other's line, and parallel perturbation runs no faster than serial.
type Source struct {
	s0, s1, s2, s3 uint64

	// cached second variate of the last Marsaglia polar step
	gauss    float64
	hasGauss bool

	_ [128 - 5*8 - 1]byte
}

// New returns a Source seeded from the given seed. Two Sources built from
// the same seed produce identical streams.
func New(seed uint64) *Source {
	var src Source
	src.Reseed(seed)
	return &src
}

// Reseed resets the generator state as if it had been constructed by
// New(seed), discarding any cached Gaussian value.
func (s *Source) Reseed(seed uint64) {
	// splitmix64 expansion of the seed into four non-zero words, as
	// recommended by the xoshiro authors.
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	s.s0, s.s1, s.s2, s.s3 = next(), next(), next(), next()
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 0x9e3779b97f4a7c15 // all-zero state is the one forbidden state
	}
	s.gauss = 0
	s.hasGauss = false
}

// Seed re-seeds the generator. Together with Int63 and Uint64 it lets a
// *Source satisfy math/rand.Source64, so deterministic Sources can drive
// stdlib consumers such as testing/quick.
func (s *Source) Seed(seed int64) { s.Reseed(uint64(seed)) }

// Split derives a new Source whose stream is independent of the receiver's
// future output. It consumes two values from the receiver.
func (s *Source) Split() *Source {
	// Mixing two outputs through splitmix64-style finalization gives a
	// well-separated seed for the child stream.
	a, b := s.Uint64(), s.Uint64()
	z := a ^ (b << 1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return New(z ^ (z >> 31))
}

// SplitN derives n independent Sources from one seed: the c-th returned
// Source is the c-th Split child of a fresh parent seeded with seed. This is
// the substream constructor behind the library's chunked parallelism — the
// stream of chunk c depends only on (seed, c), never on which worker
// processes the chunk.
func SplitN(seed uint64, n int) []*Source {
	parent := New(seed)
	out := make([]*Source, n)
	for c := range out {
		out[c] = parent.Split()
	}
	return out
}

// Splitter derives the SplitN child sequence lazily: the c-th call to Next
// returns a Source identical to SplitN(seed, n)[c] for any n > c. Streaming
// stages use it when the total chunk count is not known upfront — a chunk's
// substream still depends only on (seed, chunk index), never on how many
// chunks eventually flow through.
type Splitter struct {
	parent *Source
	next   int
}

// NewSplitter returns a Splitter over the given seed.
func NewSplitter(seed uint64) *Splitter {
	return &Splitter{parent: New(seed)}
}

// Next returns the next child Source. The c-th returned child equals
// SplitN(seed, n)[c].
func (sp *Splitter) Next() *Source {
	sp.next++
	return sp.parent.Split()
}

// NextIndex returns the index of the child the next call to Next will
// return; callers aligning substreams to a chunk grid can assert it.
func (sp *Splitter) NextIndex() int { return sp.next }

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s0+s.s3, 23) + s.s0
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Int63 returns a non-negative 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Intn returns an integer uniform on [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn called with n <= 0")
	}
	return int(s.Uint64n(uint64(n)))
}

// Uint64n returns an integer uniform on [0, n) without modulo bias
// (Lemire's nearly-divisionless method). It panics if n == 0.
func (s *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("prng: Uint64n called with n == 0")
	}
	for {
		v := s.Uint64()
		hi, lo := mul64(v, n)
		if lo >= n || lo >= -n%n { // -n%n == (2^64 - n) mod n
			return hi
		}
	}
}

// mul64 returns the 128-bit product of x and y as (hi, lo).
func mul64(x, y uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	x0, x1 := x&mask, x>>32
	y0, y1 := y&mask, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t&mask + x0*y1
	hi = x1*y1 + t>>32 + w1>>32
	lo = x * y
	return
}

// Float64 returns a float uniform on [0, 1) with 53 bits of precision.
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Uniform returns a float uniform on [lo, hi). It panics if hi < lo.
func (s *Source) Uniform(lo, hi float64) float64 {
	if hi < lo {
		panic("prng: Uniform called with hi < lo")
	}
	return lo + (hi-lo)*s.Float64()
}

// NormFloat64 returns a standard normal variate (mean 0, stddev 1) using the
// Marsaglia polar method. One value is cached between calls.
func (s *Source) NormFloat64() float64 {
	if s.hasGauss {
		s.hasGauss = false
		return s.gauss
	}
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(q) / q)
		s.gauss = v * f
		s.hasGauss = true
		return u * f
	}
}

// Gaussian returns a normal variate with the given mean and stddev.
func (s *Source) Gaussian(mean, stddev float64) float64 {
	return mean + stddev*s.NormFloat64()
}

// Triangular returns a variate from the triangular distribution on [a, b]
// with mode c, via inverse-CDF sampling. It panics unless a <= c <= b and
// a < b.
func (s *Source) Triangular(a, c, b float64) float64 {
	if !(a <= c && c <= b) || a >= b {
		panic("prng: Triangular requires a <= c <= b and a < b")
	}
	u := s.Float64()
	fc := (c - a) / (b - a)
	if u < fc {
		return a + math.Sqrt(u*(b-a)*(c-a))
	}
	return b - math.Sqrt((1-u)*(b-a)*(b-c))
}

// Bernoulli returns true with probability p (clamped to [0,1]).
func (s *Source) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return s.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.ShuffleInts(p)
	return p
}

// ShuffleInts permutes p in place (Fisher–Yates).
func (s *Source) ShuffleInts(p []int) {
	for i := len(p) - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
}
