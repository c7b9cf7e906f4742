package noise

import (
	"fmt"
	"math"

	"ppdm/internal/prng"
)

// Laplace is additive noise with density (1/2b)·exp(−|y|/b). It is the
// mechanism of modern (local) differential privacy, provided here as an
// extension that bridges the paper's confidence-interval privacy metric to
// ε-DP: perturbing a value whose domain has width W with Laplace(W/ε) noise
// gives ε-differential privacy for that value.
type Laplace struct{ B float64 }

// NewLaplace validates b > 0.
func NewLaplace(b float64) (Laplace, error) {
	if !(b > 0) || math.IsInf(b, 0) || math.IsNaN(b) {
		return Laplace{}, fmt.Errorf("noise: laplace scale must be positive and finite, got %v", b)
	}
	return Laplace{B: b}, nil
}

// Name implements Model.
func (l Laplace) Name() string { return "laplace" }

// Sample implements Model via inverse-CDF sampling.
func (l Laplace) Sample(r *prng.Source) float64 {
	u := r.Float64() - 0.5
	if u >= 0 {
		return -l.B * math.Log(1-2*u)
	}
	return l.B * math.Log(1+2*u)
}

// Density implements Model.
func (l Laplace) Density(y float64) float64 {
	return math.Exp(-math.Abs(y)/l.B) / (2 * l.B)
}

// CDF implements Model.
func (l Laplace) CDF(y float64) float64 {
	if y < 0 {
		return 0.5 * math.Exp(y/l.B)
	}
	return 1 - 0.5*math.Exp(-y/l.B)
}

// ConfidenceWidth implements Model: P(|Y| <= t) = 1 − e^(−t/b) = conf gives
// t = −b·ln(1−conf), so the centered interval has width 2t.
func (l Laplace) ConfidenceWidth(conf float64) float64 {
	return -2 * l.B * math.Log(1-conf)
}

// Support implements Model: P(|Y| > R) = e^(−R/b) = tailMass gives
// R = −b·ln(tailMass). The support is unbounded, so tailMass <= 0 yields
// +Inf.
func (l Laplace) Support(tailMass float64) float64 {
	if !(tailMass > 0) {
		return math.Inf(1)
	}
	if tailMass >= 1 {
		return 0
	}
	return -l.B * math.Log(tailMass)
}

// LaplaceForPrivacy calibrates Laplace noise to the paper's privacy level
// (fraction of domain width at the given confidence).
func LaplaceForPrivacy(level, width, conf float64) (Laplace, error) {
	if err := checkLevelConf(level, width, conf); err != nil {
		return Laplace{}, err
	}
	return NewLaplace(level * width / (-2 * math.Log(1-conf)))
}

// LaplaceForEpsilon calibrates Laplace noise to ε-differential privacy for
// a value whose domain width (= sensitivity of the identity query) is
// width: b = width/ε.
func LaplaceForEpsilon(epsilon, width float64) (Laplace, error) {
	if !(epsilon > 0) || math.IsInf(epsilon, 0) || math.IsNaN(epsilon) {
		return Laplace{}, fmt.Errorf("noise: epsilon must be positive and finite, got %v", epsilon)
	}
	if !(width > 0) || math.IsInf(width, 0) || math.IsNaN(width) {
		return Laplace{}, fmt.Errorf("noise: domain width must be positive, got %v", width)
	}
	return NewLaplace(width / epsilon)
}

// Epsilon returns the differential-privacy parameter this noise provides
// for a value whose domain width is width: ε = width/b. Smaller is more
// private.
func (l Laplace) Epsilon(width float64) float64 { return width / l.B }
