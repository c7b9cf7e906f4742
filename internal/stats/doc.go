// Package stats provides the statistical substrate for the reproduction:
// sample quantiles, distribution distances (L1 and total variation) with
// probability-vector checks, and Shannon and differential entropy of binned
// distributions.
//
// These are the primitives behind the reconstruction-quality figures (§3.3
// compares original, randomized and reconstructed distributions), the
// entropy-based privacy metrics of the PODS 2001 follow-up implemented in
// internal/privacy, and the benchmark's quantiles.
//
// Probability vectors in this package are plain []float64 slices indexed by
// bin; they are expected to be non-negative and to sum to (approximately) 1.
package stats
