package stats

import (
	"fmt"
	"math"
)

// L1 returns the L1 distance Σ|p_i − q_i| between two probability vectors
// over the same bins. For probability vectors this is twice the total
// variation distance and lies in [0, 2].
func L1(p, q []float64) (float64, error) {
	if len(p) != len(q) {
		return 0, fmt.Errorf("stats: L1 length mismatch %d vs %d", len(p), len(q))
	}
	var d float64
	for i := range p {
		d += math.Abs(p[i] - q[i])
	}
	return d, nil
}

// TotalVariation returns the total variation distance between two
// probability vectors: half the L1 distance, in [0, 1].
func TotalVariation(p, q []float64) (float64, error) {
	d, err := L1(p, q)
	return d / 2, err
}

// IsDistribution reports whether p is a valid probability vector: all
// entries finite and non-negative, summing to 1 within tol.
func IsDistribution(p []float64, tol float64) bool {
	var sum float64
	for _, v := range p {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
		sum += v
	}
	return math.Abs(sum-1) <= tol
}

// Normalize scales p in place so it sums to 1. If the sum is zero or not
// finite, p is set to the uniform distribution.
func Normalize(p []float64) {
	var sum float64
	for _, v := range p {
		sum += v
	}
	if sum <= 0 || math.IsNaN(sum) || math.IsInf(sum, 0) {
		u := 1 / float64(len(p))
		for i := range p {
			p[i] = u
		}
		return
	}
	for i := range p {
		p[i] /= sum
	}
}
