// Package noise implements the paper's value-distortion operators (§2) and
// the arithmetic that connects noise parameters to privacy levels.
//
// The paper perturbs a sensitive value x to x + y where y is drawn from a
// publicly known zero-mean distribution — uniform on [-α, +α] or Gaussian
// with standard deviation σ. Privacy is quantified by confidence intervals
// (§2.2): noise provides privacy level P (a fraction of the attribute's
// domain width W) at confidence c if the shortest interval containing a
// fraction c of the noise mass has width P·W. The paper reports privacy at
// 95% confidence; the conversion helpers here accept any confidence in
// (0, 1).
//
// The package also provides the paper's value-class-membership operator
// (discretization to interval midpoints, §2.1) and, as extensions, Laplace
// noise (the local differential-privacy mechanism) and Warner's randomized
// response for categorical attributes.
//
// PerturbStream perturbs record batches as they flow (the paper's
// collection model — each record is randomized before it reaches the
// server) with O(batch) memory, and PerturbTable runs it over a
// materialized table as one batch. Chunk c's noise comes from the c-th
// substream of the seed over the fixed PerturbChunk grid, so the output is
// the same at any worker count and batch size.
package noise
