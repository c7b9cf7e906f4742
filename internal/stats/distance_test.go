package stats

import (
	"math"
	"testing"
	"testing/quick"

	"ppdm/internal/prng"
)

func randomDistribution(r *prng.Source, k int) []float64 {
	p := make([]float64, k)
	for i := range p {
		p[i] = r.Float64()
	}
	Normalize(p)
	return p
}

func TestL1Basics(t *testing.T) {
	p := []float64{0.5, 0.5}
	q := []float64{1, 0}
	d, err := L1(p, q)
	if err != nil || math.Abs(d-1) > 1e-12 {
		t.Fatalf("L1 = %v, %v; want 1", d, err)
	}
	if d, _ := L1(p, p); d != 0 {
		t.Fatalf("L1(p,p) = %v", d)
	}
	if _, err := L1(p, []float64{1}); err == nil {
		t.Fatal("L1 length mismatch succeeded")
	}
}

func TestDistanceProperties(t *testing.T) {
	src := prng.New(7)
	f := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw%20) + 2
		r := prng.New(seed)
		p := randomDistribution(r, k)
		q := randomDistribution(r, k)
		l1, err1 := L1(p, q)
		tv, err2 := TotalVariation(p, q)
		if err1 != nil || err2 != nil {
			return false
		}
		// symmetry
		l1r, _ := L1(q, p)
		if math.Abs(l1-l1r) > 1e-12 {
			return false
		}
		// ranges: 0 <= L1 <= 2, L1 = 2 TV
		return l1 >= 0 && l1 <= 2 &&
			math.Abs(l1-2*tv) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: quickRand(src)}); err != nil {
		t.Fatal(err)
	}
}

func TestIsDistribution(t *testing.T) {
	if !IsDistribution([]float64{0.3, 0.7}, 1e-9) {
		t.Error("valid distribution rejected")
	}
	if IsDistribution([]float64{0.5, 0.6}, 1e-9) {
		t.Error("non-normalized accepted")
	}
	if IsDistribution([]float64{-0.1, 1.1}, 1e-9) {
		t.Error("negative entry accepted")
	}
	if IsDistribution([]float64{math.NaN(), 1}, 1e-9) {
		t.Error("NaN accepted")
	}
}

func TestNormalize(t *testing.T) {
	p := []float64{2, 2, 4}
	Normalize(p)
	want := []float64{0.25, 0.25, 0.5}
	for i := range want {
		if math.Abs(p[i]-want[i]) > 1e-12 {
			t.Fatalf("Normalize = %v", p)
		}
	}
	// degenerate input falls back to uniform
	z := []float64{0, 0, 0, 0}
	Normalize(z)
	for _, v := range z {
		if v != 0.25 {
			t.Fatalf("Normalize zero vector = %v", z)
		}
	}
	inf := []float64{math.Inf(1), 1}
	Normalize(inf)
	if !IsDistribution(inf, 1e-9) {
		t.Fatalf("Normalize inf vector = %v", inf)
	}
}
