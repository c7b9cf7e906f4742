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
// Each observation row's share of the observations, cnt/n, is taken once
// per reconstruction. Each iteration is then one loop of five passes: a
// band-limited row pass over the slab that turns A·p into every row's
// update coefficient share/(A·p), a serial pass that folds the rows the
// estimate cannot explain into one fallback coefficient and takes the
// coefficients' prefix sums, a band-limited column pass next = p ⊙ Aᵀq, a
// serial sum of next, and a closing pass that normalizes next into p,
// accumulates the total variation between the two and takes p's prefix
// sums for the next iteration. Every sum keeps the index order of the
// plain loop it replaced (normalize, total variation, copy), so the
// estimate is the same bits. Iteration state lives in pooled scratch
// buffers (sync.Pool) so steady-state callers allocate only the
// observation grid and the returned estimate; an iteration itself
// allocates nothing.
//
// # Run-compressed rows
//
// When a matrix is built, each row and each transposed column is described
// once by a fold: its span of nonzero cells and at most one run of at
// least eight bit-equal cells inside it. The two mat-vec passes read the
// serial, index-order prefix sums of p (and of the coefficients), add a
// run as v·(P[hi] − P[lo]) and fold the cells outside it in index order. Under
// uniform noise a Bayes row is one run of the density 1/(2α), so an
// iteration costs O(m+k) instead of O(m·band); uniform EM rows form runs
// where the interval width makes the CDF differences exact (widths 0.5, 1
// and 2, for instance). Gaussian and Laplace rows have no run and fold
// exactly as a plain cell-by-cell loop over the whole band does — dropping
// zero end cells leaves a fold unchanged — so their estimates are
// bit-identical to it. A run's sum rounds differently from the plain fold:
// uniform estimates move at the rounding level, well inside the 1e-12
// bound the plain-fold oracle checks. Every product is rounded before it
// is added (an explicit float64 conversion), so no architecture fuses a
// multiply-add into the kernel.
//
// When the work left after that compression is large, both mat-vec passes
// shard over fixed chunk grids on internal/parallel; every per-interval
// fold runs in index order and the prefix sums are serial, so the estimate
// is bit-identical at any worker count.
//
// # Weight cache
//
// Matrices are cached in one bounded LRU shared by every reconstruction
// (DefaultWeightCacheEntries): the root geometries of Global and ByClass
// training, and the node sub-partitions of Local training, which keep the
// root partition's width at varying offsets and so repeat their canonical
// keys across nodes, subtrees and trainings. Config.Cache substitutes a
// caller's own cache, for a measurement that must start cold.
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
