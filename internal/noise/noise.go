package noise

import (
	"fmt"
	"math"

	"ppdm/internal/prng"
)

// DefaultConfidence is the confidence level at which the paper quotes
// privacy numbers.
const DefaultConfidence = 0.95

// Model is an additive, zero-mean noise distribution. Implementations must
// be immutable values so they can be shared freely.
type Model interface {
	// Name identifies the model family ("uniform", "gaussian").
	Name() string
	// Sample draws one noise value using r.
	Sample(r *prng.Source) float64
	// Density returns the probability density f_Y(y).
	Density(y float64) float64
	// CDF returns the cumulative distribution F_Y(y).
	CDF(y float64) float64
	// ConfidenceWidth returns the width of the centered interval that
	// contains a fraction conf of the noise mass.
	ConfidenceWidth(conf float64) float64
	// Support returns a finite radius R such that at most tailMass of the
	// noise probability mass lies outside [-R, R], for any tailMass in
	// (0, 1). Models with genuinely bounded support return the exact
	// radius. The reconstruction kernel stores its transition matrices as
	// bands of this radius, and bounds its observation grids by it.
	Support(tailMass float64) float64
}

// Uniform is additive noise distributed uniformly on [-Alpha, +Alpha].
type Uniform struct{ Alpha float64 }

// NewUniform validates alpha > 0.
func NewUniform(alpha float64) (Uniform, error) {
	if !(alpha > 0) || math.IsInf(alpha, 0) || math.IsNaN(alpha) {
		return Uniform{}, fmt.Errorf("noise: uniform alpha must be positive and finite, got %v", alpha)
	}
	return Uniform{Alpha: alpha}, nil
}

// Name implements Model.
func (u Uniform) Name() string { return "uniform" }

// Sample implements Model.
func (u Uniform) Sample(r *prng.Source) float64 { return r.Uniform(-u.Alpha, u.Alpha) }

// Density implements Model.
func (u Uniform) Density(y float64) float64 {
	if y < -u.Alpha || y > u.Alpha {
		return 0
	}
	return 1 / (2 * u.Alpha)
}

// CDF implements Model.
func (u Uniform) CDF(y float64) float64 {
	switch {
	case y <= -u.Alpha:
		return 0
	case y >= u.Alpha:
		return 1
	default:
		return (y + u.Alpha) / (2 * u.Alpha)
	}
}

// ConfidenceWidth implements Model: the centered interval [-cα, +cα] holds
// fraction c of the mass, so the width is 2cα.
func (u Uniform) ConfidenceWidth(conf float64) float64 { return 2 * conf * u.Alpha }

// Support implements Model: the support is exactly [-α, +α] for any tail
// mass.
func (u Uniform) Support(tailMass float64) float64 { return u.Alpha }

// Gaussian is additive noise distributed N(0, Sigma²).
type Gaussian struct{ Sigma float64 }

// NewGaussian validates sigma > 0.
func NewGaussian(sigma float64) (Gaussian, error) {
	if !(sigma > 0) || math.IsInf(sigma, 0) || math.IsNaN(sigma) {
		return Gaussian{}, fmt.Errorf("noise: gaussian sigma must be positive and finite, got %v", sigma)
	}
	return Gaussian{Sigma: sigma}, nil
}

// Name implements Model.
func (g Gaussian) Name() string { return "gaussian" }

// Sample implements Model.
func (g Gaussian) Sample(r *prng.Source) float64 { return r.Gaussian(0, g.Sigma) }

// Density implements Model.
func (g Gaussian) Density(y float64) float64 {
	z := y / g.Sigma
	return math.Exp(-z*z/2) / (g.Sigma * math.Sqrt(2*math.Pi))
}

// CDF implements Model.
func (g Gaussian) CDF(y float64) float64 {
	return 0.5 * (1 + math.Erf(y/(g.Sigma*math.Sqrt2)))
}

// ConfidenceWidth implements Model: 2·z·σ where z is the (1+conf)/2 standard
// normal quantile (z ≈ 1.96 at 95%).
func (g Gaussian) ConfidenceWidth(conf float64) float64 {
	return 2 * normalQuantile(conf) * g.Sigma
}

// Support implements Model: P(|Y| > z·σ) = tailMass at the two-sided
// quantile z = √2·erfinv(1−tailMass). The support is unbounded, so
// tailMass <= 0 yields +Inf.
func (g Gaussian) Support(tailMass float64) float64 {
	if !(tailMass > 0) {
		return math.Inf(1)
	}
	if tailMass >= 1 {
		return 0
	}
	return normalQuantile(1-tailMass) * g.Sigma
}

// normalQuantile returns z such that P(|Z| <= z) = conf for standard normal Z.
func normalQuantile(conf float64) float64 {
	return math.Sqrt2 * math.Erfinv(conf)
}

// checkLevelConf validates the shared arguments of the ForPrivacy
// constructors.
func checkLevelConf(level, width, conf float64) error {
	if !(level > 0) || math.IsInf(level, 0) || math.IsNaN(level) {
		return fmt.Errorf("noise: privacy level must be positive, got %v", level)
	}
	if !(width > 0) || math.IsInf(width, 0) || math.IsNaN(width) {
		return fmt.Errorf("noise: domain width must be positive, got %v", width)
	}
	if !(conf > 0 && conf < 1) {
		return fmt.Errorf("noise: confidence must be in (0,1), got %v", conf)
	}
	return nil
}

// UniformForPrivacy returns the uniform model that provides the given
// privacy level (fraction of domain width, e.g. 1.0 for the paper's "100%
// privacy") at the given confidence: α = level·width / (2·conf).
func UniformForPrivacy(level, width, conf float64) (Uniform, error) {
	if err := checkLevelConf(level, width, conf); err != nil {
		return Uniform{}, err
	}
	return NewUniform(level * width / (2 * conf))
}

// GaussianForPrivacy returns the Gaussian model that provides the given
// privacy level at the given confidence: σ = level·width / (2·z(conf)).
func GaussianForPrivacy(level, width, conf float64) (Gaussian, error) {
	if err := checkLevelConf(level, width, conf); err != nil {
		return Gaussian{}, err
	}
	return NewGaussian(level * width / (2 * normalQuantile(conf)))
}

// PrivacyLevel returns the privacy level (fraction of the domain width)
// that the model provides at the given confidence; the inverse of the
// ForPrivacy constructors.
func PrivacyLevel(m Model, width, conf float64) float64 {
	return m.ConfidenceWidth(conf) / width
}

// ForPrivacy builds a model of the named family ("uniform", "gaussian", or
// "laplace") at the given privacy level and confidence.
func ForPrivacy(family string, level, width, conf float64) (Model, error) {
	switch family {
	case "uniform":
		return UniformForPrivacy(level, width, conf)
	case "gaussian":
		return GaussianForPrivacy(level, width, conf)
	case "laplace":
		return LaplaceForPrivacy(level, width, conf)
	default:
		return nil, fmt.Errorf("noise: unknown model family %q", family)
	}
}
