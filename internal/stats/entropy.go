package stats

import "math"

// Entropy returns the Shannon entropy of the probability vector p in bits.
// Zero-probability bins contribute nothing. Negative entries make the result
// undefined; callers should validate with IsDistribution first.
func Entropy(p []float64) float64 {
	var h float64
	for _, v := range p {
		if v > 0 {
			h -= v * math.Log2(v)
		}
	}
	return h
}

// DifferentialEntropy estimates the differential entropy (in bits) of a
// continuous variable from its binned distribution p over bins of the given
// width: h ≈ H(p) + log2(width). This is the quantity behind the
// entropy-based privacy measure Π(X) = 2^h(X) proposed in the follow-up
// literature (Agrawal & Aggarwal, PODS 2001).
func DifferentialEntropy(p []float64, binWidth float64) float64 {
	return Entropy(p) + math.Log2(binWidth)
}

// EntropyPrivacy returns the entropy-based privacy measure Π = 2^h for a
// binned distribution: the length of the interval a uniform distribution
// would need to have the same uncertainty.
func EntropyPrivacy(p []float64, binWidth float64) float64 {
	return math.Exp2(DifferentialEntropy(p, binWidth))
}
