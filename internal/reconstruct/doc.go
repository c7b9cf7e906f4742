// Package reconstruct implements the paper's central algorithm: estimating
// the original distribution of a sensitive attribute from its perturbed
// values and the known noise distribution (§3 of the SIGMOD 2000 paper,
// "Reconstructing The Original Distribution").
//
// The attribute domain is partitioned into k equal-width intervals and the
// estimate is a probability vector over those intervals. Two update rules
// are provided:
//
//   - Bayes — the paper's iterative procedure with the midpoint
//     approximation: interval interactions are weighted by the noise density
//     evaluated at midpoint differences.
//   - EM — the exact-interval variant (the maximum-likelihood EM update of
//     Agrawal & Aggarwal, PODS 2001): interactions use the noise mass that
//     actually falls between interval edges, obtained from the noise CDF.
//
// Both rules aggregate the perturbed observations into intervals first, so
// one iteration costs O(k·m) for k domain intervals and m observation
// intervals, independent of the number of records — the optimization the
// paper describes for scaling to large collections.
//
// # Kernel layout
//
// The transition-weight matrix A[s][t] between observation interval s and
// domain interval t is stored flat, row-major, and band-limited
// (bandedWeights): one contiguous float64 slab holds every row's band back
// to back, with per-row [lo, hi) band bounds derived from a single radius.
// Because the observation grid is aligned to the domain partition, every
// entry depends only on the index difference lowIdx + s − t, which makes
// the matrix translation-invariant: geometries that share (width, interval
// count, grid offset, length, band radius) share one bitwise-identical
// matrix, and the bounded LRU WeightCache exploits exactly that key.
//
// Each iteration runs as two fused band-limited mat-vec passes over the
// slab — q = A·p (per-row denominators), then next = p ⊙ Aᵀq — with
// iteration state in pooled scratch buffers (sync.Pool) so steady-state
// callers allocate only the observation grid and the returned estimate. On
// large grids both passes shard over fixed chunk grids on
// internal/parallel; every per-interval fold runs in index order, so the
// estimate is bit-identical at any worker count.
//
// # Band and tail semantics
//
// Every noise.Model reports a finite Support, and the band radius is that
// support at DefaultTailMass, in intervals, plus one interval of slack.
// Bounded noise (Uniform) reports its exact support: every entry outside
// the band is exactly zero. Unbounded noise (Gaussian/Laplace) is truncated
// at the radius that keeps at most DefaultTailMass = 1e-12 total
// probability mass in the two discarded tails combined (quantile bound),
// far below the statistical noise floor of any reconstruction. The band
// comes from the model alone: no setting selects dense rows, which survive
// only as the test oracle.
//
// The band also bounds every observation grid. A Collector counts on
// grid indices [−r−1, K+r] for band radius r; an observation beyond the
// band is clamped, in float before the int conversion, into the end cell
// on its side (the fold rule). The end cells' bands are empty, so the
// folded observations reach the estimate only through the fallback
// coefficient, as they would on a grid grown to reach them; only the order
// in which two or more distinct out-of-band cells on one side add into the
// fallback sum can change its rounding. Batch Reconstruct counts on the
// same grid, so no perturbed value can size an allocation.
package reconstruct
