// Package stats provides the statistical substrate for the reproduction:
// fixed-width histograms over closed domains, sample quantiles,
// distribution distances (L1, L2, Kolmogorov–Smirnov, chi-square), and
// information-theoretic quantities (Shannon entropy, differential entropy,
// mutual information) computed on binned data.
//
// These are the primitives behind the paper's reconstruction-quality figures
// (§3.3 plots original vs randomized vs reconstructed distributions), the
// gini/entropy split criteria of tree induction (§4), and the entropy-based
// privacy metrics of the PODS 2001 follow-up implemented in
// internal/privacy.
//
// Probability vectors in this package are plain []float64 slices indexed by
// bin; they are expected to be non-negative and to sum to (approximately) 1.
package stats
