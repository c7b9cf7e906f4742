package prng

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("streams diverged at %d: %d != %d", i, av, bv)
		}
	}
}

func TestReseedMatchesNew(t *testing.T) {
	a := New(7)
	a.Uint64()
	a.NormFloat64() // populate the Gaussian cache
	a.Reseed(99)
	b := New(99)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("Reseed did not reset state at step %d", i)
		}
	}
	if a.NormFloat64() != b.NormFloat64() {
		t.Fatal("Reseed did not clear the Gaussian cache")
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("different seeds produced %d/100 identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(5)
	child := parent.Split()
	// The child stream must not simply replay the parent's stream.
	p0 := parent.Uint64()
	c0 := child.Uint64()
	if p0 == c0 {
		t.Fatal("split stream mirrors parent stream")
	}
	// And splitting must be deterministic given the parent seed.
	parent2 := New(5)
	child2 := parent2.Split()
	parent2.Uint64()
	if c0 != child2.Uint64() {
		t.Fatal("Split is not deterministic")
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(4)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 2000; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUniformRangeProperty(t *testing.T) {
	s := New(8)
	f := func(a, b float64) bool {
		lo, hi := math.Mod(math.Abs(a), 1e6), math.Mod(math.Abs(b), 1e6)
		if hi < lo {
			lo, hi = hi, lo
		}
		if hi == lo {
			hi = lo + 1
		}
		v := s.Uniform(lo, hi)
		return v >= lo && v < hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformMoments(t *testing.T) {
	s := New(11)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Uniform(-2, 6)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-2) > 0.03 {
		t.Errorf("uniform(-2,6) mean = %v, want ~2", mean)
	}
	// Var = (b-a)^2/12 = 64/12 ≈ 5.333
	if math.Abs(variance-64.0/12) > 0.1 {
		t.Errorf("uniform(-2,6) variance = %v, want ~5.33", variance)
	}
}

func TestGaussianMoments(t *testing.T) {
	s := New(12)
	const n = 200000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := s.Gaussian(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if math.Abs(mean-10) > 0.05 {
		t.Errorf("gaussian mean = %v, want ~10", mean)
	}
	if math.Abs(variance-9) > 0.2 {
		t.Errorf("gaussian variance = %v, want ~9", variance)
	}
}

func TestGaussianTails(t *testing.T) {
	s := New(13)
	const n = 100000
	within1, within2 := 0, 0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		if math.Abs(v) < 1 {
			within1++
		}
		if math.Abs(v) < 2 {
			within2++
		}
	}
	if p := float64(within1) / n; math.Abs(p-0.6827) > 0.01 {
		t.Errorf("P(|Z|<1) = %v, want ~0.6827", p)
	}
	if p := float64(within2) / n; math.Abs(p-0.9545) > 0.01 {
		t.Errorf("P(|Z|<2) = %v, want ~0.9545", p)
	}
}

func TestTriangularMoments(t *testing.T) {
	s := New(14)
	const n = 200000
	a, c, b := 0.0, 2.0, 10.0
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Triangular(a, c, b)
		if v < a || v > b {
			t.Fatalf("triangular sample %v out of [%v,%v]", v, a, b)
		}
		sum += v
	}
	mean := sum / n
	want := (a + b + c) / 3
	if math.Abs(mean-want) > 0.05 {
		t.Errorf("triangular mean = %v, want ~%v", mean, want)
	}
}

func TestTriangularPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid Triangular args did not panic")
		}
	}()
	New(1).Triangular(5, 1, 2)
}

func TestBernoulli(t *testing.T) {
	s := New(15)
	if s.Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
	if !s.Bernoulli(1) {
		t.Error("Bernoulli(1) returned false")
	}
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	if p := float64(hits) / n; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(16)
	for _, n := range []int{0, 1, 2, 17, 100} {
		p := s.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has len %d", n, len(p))
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

func TestPermUniformityChiSquare(t *testing.T) {
	// Each position/value pair of Perm(4) should be hit ~N/4 times.
	s := New(17)
	const trials = 40000
	var counts [4][4]int
	for i := 0; i < trials; i++ {
		p := s.Perm(4)
		for pos, v := range p {
			counts[pos][v]++
		}
	}
	expected := float64(trials) / 4
	var chi2 float64
	for pos := 0; pos < 4; pos++ {
		for v := 0; v < 4; v++ {
			d := float64(counts[pos][v]) - expected
			chi2 += d * d / expected
		}
	}
	// 16 cells; generous bound (df≈9, p≈1e-6 would be ~48).
	if chi2 > 60 {
		t.Errorf("Perm(4) uniformity chi2 = %v, too large", chi2)
	}
}

func TestUint64nBoundary(t *testing.T) {
	s := New(18)
	for i := 0; i < 1000; i++ {
		if v := s.Uint64n(1); v != 0 {
			t.Fatalf("Uint64n(1) = %d", v)
		}
	}
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.NormFloat64()
	}
}

func TestSplitN(t *testing.T) {
	srcs := SplitN(9, 8)
	if len(srcs) != 8 {
		t.Fatalf("SplitN returned %d sources", len(srcs))
	}
	// Each substream must match the corresponding sequential Split child...
	parent := New(9)
	for c, s := range srcs {
		want := parent.Split().Uint64()
		if got := s.Uint64(); got != want {
			t.Fatalf("substream %d diverges from Split child", c)
		}
	}
	// ...and distinct substreams must not collide on their first outputs.
	seen := map[uint64]bool{}
	for c, s := range SplitN(9, 8) {
		v := s.Uint64()
		if seen[v] {
			t.Fatalf("substream %d repeats another substream's first output", c)
		}
		seen[v] = true
	}
	if out := SplitN(9, 0); len(out) != 0 {
		t.Fatalf("SplitN(9, 0) returned %d sources", len(out))
	}
}

// TestSourceLayout pins the padding that keeps sibling substreams off each
// other's cache lines: a Source fills a 128-byte size class, and at least
// 64 bytes follow its last state field, so the state of two Sources never
// shares a 64-byte line, wherever they are placed.
func TestSourceLayout(t *testing.T) {
	var s Source
	size := unsafe.Sizeof(s)
	if size < 128 {
		t.Errorf("Source is %d bytes, want at least 128", size)
	}
	stateEnd := unsafe.Offsetof(s.hasGauss) + unsafe.Sizeof(s.hasGauss)
	for _, end := range []uintptr{
		unsafe.Offsetof(s.s0) + unsafe.Sizeof(s.s0),
		unsafe.Offsetof(s.s1) + unsafe.Sizeof(s.s1),
		unsafe.Offsetof(s.s2) + unsafe.Sizeof(s.s2),
		unsafe.Offsetof(s.s3) + unsafe.Sizeof(s.s3),
		unsafe.Offsetof(s.gauss) + unsafe.Sizeof(s.gauss),
	} {
		stateEnd = max(stateEnd, end)
	}
	if stateEnd+64 > size {
		t.Errorf("Source state ends at byte %d of %d, want at least 64 bytes of padding after it", stateEnd, size)
	}
}
