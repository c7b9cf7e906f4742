package synth

import "ppdm/internal/prng"

// Plateau draws n values on [0, 100] for the paper's §3.2 reconstruction
// figure: 90% uniform on the plateau [25, 75], the rest uniform over the
// whole domain. Like Triangles and Bimodal it consumes r value by value,
// so a caller that goes on to perturb from the same source sees the same
// stream whichever shape it drew.
func Plateau(n int, r *prng.Source) []float64 {
	out := make([]float64, n)
	for i := range out {
		if r.Bernoulli(0.9) {
			out[i] = r.Uniform(25, 75)
		} else {
			out[i] = r.Uniform(0, 100)
		}
	}
	return out
}

// Triangles draws n values on [0, 100] for the paper's double-triangle
// figure: an even mix of triangular densities on [5, 45] and [55, 95],
// peaking at 25 and 75.
func Triangles(n int, r *prng.Source) []float64 {
	out := make([]float64, n)
	for i := range out {
		if r.Bernoulli(0.5) {
			out[i] = r.Triangular(5, 25, 45)
		} else {
			out[i] = r.Triangular(55, 75, 95)
		}
	}
	return out
}

// Bimodal draws n values on [0, 100] from two gaussian clusters, 60%
// around 30 and 40% around 70 with standard deviation 8, clamped to the
// domain: the online-survey age distribution.
func Bimodal(n int, r *prng.Source) []float64 {
	out := make([]float64, n)
	for i := range out {
		var v float64
		if r.Bernoulli(0.6) {
			v = r.Gaussian(30, 8)
		} else {
			v = r.Gaussian(70, 8)
		}
		out[i] = min(max(v, 0), 100)
	}
	return out
}
