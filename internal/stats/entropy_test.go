package stats

import (
	"math"
	"testing"

	"ppdm/internal/prng"
)

func TestEntropyKnownValues(t *testing.T) {
	if h := Entropy([]float64{1, 0, 0}); h != 0 {
		t.Errorf("Entropy(point mass) = %v, want 0", h)
	}
	if h := Entropy([]float64{0.5, 0.5}); math.Abs(h-1) > 1e-12 {
		t.Errorf("Entropy(fair coin) = %v, want 1 bit", h)
	}
	uniform8 := make([]float64, 8)
	for i := range uniform8 {
		uniform8[i] = 1.0 / 8
	}
	if h := Entropy(uniform8); math.Abs(h-3) > 1e-12 {
		t.Errorf("Entropy(uniform 8) = %v, want 3 bits", h)
	}
}

func TestEntropyMaximizedByUniform(t *testing.T) {
	r := prng.New(23)
	k := 16
	uniform := make([]float64, k)
	for i := range uniform {
		uniform[i] = 1 / float64(k)
	}
	hu := Entropy(uniform)
	for trial := 0; trial < 100; trial++ {
		p := randomDistribution(r, k)
		if Entropy(p) > hu+1e-9 {
			t.Fatalf("entropy %v of %v exceeds uniform entropy %v", Entropy(p), p, hu)
		}
	}
}

func TestDifferentialEntropyUniform(t *testing.T) {
	// A uniform distribution over an interval of width W has differential
	// entropy log2(W), so EntropyPrivacy must return W itself.
	k := 32
	p := make([]float64, k)
	for i := range p {
		p[i] = 1 / float64(k)
	}
	const width = 100.0
	binWidth := width / float64(k)
	if h := DifferentialEntropy(p, binWidth); math.Abs(h-math.Log2(width)) > 1e-9 {
		t.Errorf("differential entropy = %v, want log2(%v)=%v", h, width, math.Log2(width))
	}
	if priv := EntropyPrivacy(p, binWidth); math.Abs(priv-width) > 1e-6 {
		t.Errorf("EntropyPrivacy = %v, want %v", priv, width)
	}
}
