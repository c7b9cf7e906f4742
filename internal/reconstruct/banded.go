package reconstruct

import (
	"math"
	"sync"

	"ppdm/internal/noise"
	"ppdm/internal/parallel"
)

// DefaultTailMass is the total per-row noise mass (both tails combined)
// the banded kernel may discard for an unbounded model (Gaussian/Laplace)
// when Config.TailMass is zero. It is far below the statistical noise floor of
// any reconstruction, so the default band is numerically indistinguishable
// from the dense matrix while still pruning genuinely negligible tails.
const DefaultTailMass = 1e-12

// bandedWeights is the transition-weight matrix A[s][t] between observation
// interval s and domain interval t in flat, row-major, band-limited form.
//
// Both grids share one interval width and the observation grid sits at
// offset lowIdx on the partition grid, so every entry depends only on the
// *index difference* d = lowIdx + s − t:
//
//	Bayes: A[s][t] = Density(d·w)
//	EM:    A[s][t] = CDF((d+0.5)·w) − CDF((d−0.5)·w)
//
// Entries with |d| > radius are dropped; row s therefore stores only the
// contiguous [bandLo(s), bandHi(s)) slice of its full k-wide row, packed
// back to back in one data slab. radius is chosen from the noise model's
// support (noise.Supporter) so dropped entries are exactly zero for bounded
// noise and carry at most Config.TailMass total probability mass (both
// tails combined) per row for unbounded noise; a radius covering every row
// reproduces the dense matrix.
//
// The translation invariance of the entries is also what makes the matrix
// cacheable across geometries: two (partition, observation-grid) pairs with
// the same width, interval count, offset, length, and radius share one
// bitwise-identical matrix regardless of where their domains sit on the real
// line (weightKey exploits this for per-node sub-partitions in Local-mode
// training).
//
// The matrix is stored twice, in the two orders the two iteration passes
// stream it: row-major (data, indexed by off) for denomPass's q = A·p, and
// column-major (tData, indexed by tOff/tLo) for updatePass's p ⊙ Aᵀq. The
// transposed slab is a gather of the row slab — same bits — with each
// column's covering rows packed contiguously in increasing s, which is
// exactly the fold order the update pass owes the determinism goldens.
// Storing the transpose hoists all of the old inner-loop address math
// (w.off[s] + t − w.bandLo(s)) into build time and turns both passes into
// contiguous dot products the unrolled kernels below can stream without
// bounds checks. Bands are narrow, so the second slab costs little.
type bandedWeights struct {
	k      int       // domain intervals (full row width)
	m      int       // observation rows
	lowIdx int       // observation-grid offset on the partition grid
	radius int       // band half-width in intervals
	off    []int     // len m+1; row s occupies data[off[s]:off[s+1]]
	data   []float64 // contiguous row slabs
	tLo    []int     // len k; first observation row covering column t
	tOff   []int     // len k+1; column t occupies tData[tOff[t]:tOff[t+1]]
	tData  []float64 // contiguous column slabs (increasing s within a column)
}

// bandLo returns the first in-band domain interval of row s (inclusive).
func (w *bandedWeights) bandLo(s int) int {
	lo := w.lowIdx + s - w.radius
	if lo < 0 {
		lo = 0
	}
	if lo > w.k {
		lo = w.k
	}
	return lo
}

// bandHi returns the past-the-end domain interval of row s's band.
func (w *bandedWeights) bandHi(s int) int {
	hi := w.lowIdx + s + w.radius + 1
	if hi > w.k {
		hi = w.k
	}
	if hi < w.bandLo(s) {
		hi = w.bandLo(s)
	}
	return hi
}

// row returns the packed band of row s.
func (w *bandedWeights) row(s int) []float64 { return w.data[w.off[s]:w.off[s+1]] }

// denseRadius returns the smallest radius at which every row's band already
// spans the full [0, k) domain. Radii at or above it are canonicalised to
// this value so "dense" is a single cache key, not a family of them.
func denseRadius(k, lowIdx, m int) int {
	r := k - 1 - lowIdx
	if r2 := lowIdx + m - 1; r2 > r {
		r = r2
	}
	if r < 0 {
		r = 0
	}
	return r
}

// bandRadius resolves the band half-width for one reconstruction: the noise
// model's support radius at the configured tail mass, in intervals, plus one
// interval of slack for the EM half-interval edge offsets and floating-point
// boundary rounding. Models that cannot bound their support, and
// configurations with a negative TailMass, get the dense radius.
func bandRadius(cfg Config, width float64, k, lowIdx, m int) int {
	dense := denseRadius(k, lowIdx, m)
	tail := cfg.TailMass
	if tail == 0 {
		tail = DefaultTailMass
	}
	if tail < 0 {
		return dense
	}
	sup, ok := cfg.Noise.(noise.Supporter)
	if !ok {
		return dense
	}
	r := sup.Support(tail)
	if math.IsInf(r, 1) || math.IsNaN(r) {
		return dense
	}
	band := int(math.Ceil(r/width)) + 1
	if band >= dense {
		return dense
	}
	return band
}

// computeWeights builds the banded matrix for one geometry. The per-row
// evaluations run in parallel bounded by workers; rows are index-addressed,
// so the result is bitwise identical at any worker count. The transposed
// column slab is a pure gather of the row slab, so its entries are the same
// bits in a different order.
func computeWeights(m noise.Model, alg Algorithm, width float64, k, lowIdx, nObs, radius, workers int) *bandedWeights {
	w := &bandedWeights{k: k, m: nObs, lowIdx: lowIdx, radius: radius}
	w.off = make([]int, nObs+1)
	for s := 0; s < nObs; s++ {
		w.off[s+1] = w.off[s] + w.bandHi(s) - w.bandLo(s)
	}
	w.data = make([]float64, w.off[nObs])
	parallel.ForEach(nObs, workers, func(s int) error {
		row := w.row(s)
		lo := w.bandLo(s)
		for i := range row {
			d := float64(lowIdx + s - (lo + i))
			switch alg {
			case Bayes:
				row[i] = m.Density(d * width)
			case EM:
				row[i] = m.CDF((d+0.5)*width) - m.CDF((d-0.5)*width)
			}
		}
		return nil
	})

	// Column geometry: row s covers column t exactly when
	// lowIdx+s−radius ≤ t ≤ lowIdx+s+radius (the band clamps reduce to this
	// for t ∈ [0,k)), so column t is covered by the contiguous row range
	// [t−lowIdx−radius, t−lowIdx+radius] clamped to [0, nObs).
	w.tLo = make([]int, k)
	w.tOff = make([]int, k+1)
	for t := 0; t < k; t++ {
		sLo := t - lowIdx - radius
		if sLo < 0 {
			sLo = 0
		}
		if sLo > nObs {
			sLo = nObs // column t starts past the last row: empty column
		}
		sHi := t - lowIdx + radius + 1
		if sHi > nObs {
			sHi = nObs
		}
		if sHi < sLo {
			sHi = sLo
		}
		w.tLo[t] = sLo
		w.tOff[t+1] = w.tOff[t] + sHi - sLo
	}
	w.tData = make([]float64, w.tOff[k])
	parallel.ForEach(k, workers, func(t int) error {
		col := w.tData[w.tOff[t]:w.tOff[t+1]]
		sLo := w.tLo[t]
		for i := range col {
			s := sLo + i
			col[i] = w.data[w.off[s]+t-w.bandLo(s)]
		}
		return nil
	})
	return w
}

// iterScratch is the reusable per-call state of the fused iteration:
// the current and next estimates (length k) and the per-observation-row
// vector that holds denominators, then update coefficients (length m).
// Instances cycle through scratchPool so steady-state reconstruction — the
// per-node Local-mode path and serving-adjacent callers — performs no
// iteration-state allocation; only the observation histogram and the
// returned estimate are fresh per call.
type iterScratch struct {
	p, next []float64
	q       []float64
}

var scratchPool = sync.Pool{New: func() any { return new(iterScratch) }}

// ensure sizes the buffers for a k-interval domain and m observation rows.
func (sc *iterScratch) ensure(k, m int) {
	if cap(sc.p) < k {
		sc.p = make([]float64, k)
		sc.next = make([]float64, k)
	}
	sc.p, sc.next = sc.p[:k], sc.next[:k]
	if cap(sc.q) < m {
		sc.q = make([]float64, m)
	}
	sc.q = sc.q[:m]
}

// Fixed chunk grids for the parallel accumulation passes. The grids depend
// only on the problem size (determinism contract); iterWorkStep is the
// minimum per-iteration flop count below which the passes stay serial —
// goroutine fan-out costs more than it saves on small grids.
const (
	iterRowChunk = 128
	iterColChunk = 128
	iterWorkMin  = 1 << 15
)

// iterWorkers resolves the worker count for the fused iteration passes:
// the configured count, forced serial when the banded matrix is too small
// to amortize scheduling. Results are identical either way.
func iterWorkers(cfg Config, nnz int) int {
	if nnz < iterWorkMin {
		return 1
	}
	return cfg.Workers
}

// dot64 returns Σ a[i]·b[i] with every product folded left to right into a
// single accumulator — the exact rounding chain of the plain scalar loop —
// unrolled 4-wide so the four independent multiplies pipeline while the adds
// stay strictly ordered. The b re-slice pins len(b) to len(a) (one slice
// check at entry), and the loop advances both slice headers by 4 so every
// body index is the constant 0–3 under a len ≥ 4 guard — a shape the
// compiler provably keeps free of bounds checks (enforced by the
// ssa/check_bce guard test).
func dot64(a, b []float64) float64 {
	b = b[:len(a)]
	var acc float64
	for len(a) >= 4 && len(b) >= 4 {
		acc += a[0] * b[0]
		acc += a[1] * b[1]
		acc += a[2] * b[2]
		acc += a[3] * b[3]
		a, b = a[4:], b[4:]
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		acc += a[i] * b[i]
	}
	return acc
}

// scaledDot64 returns Σ (a[i]·b[i])·scale, folded left to right into one
// accumulator like dot64. The per-term scale placement matches the update
// rule's historical association (q·A)·p — see updatePass.
func scaledDot64(a, b []float64, scale float64) float64 {
	b = b[:len(a)]
	var acc float64
	for len(a) >= 4 && len(b) >= 4 {
		acc += a[0] * b[0] * scale
		acc += a[1] * b[1] * scale
		acc += a[2] * b[2] * scale
		acc += a[3] * b[3] * scale
		a, b = a[4:], b[4:]
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		acc += a[i] * b[i] * scale
	}
	return acc
}

// denomPass computes q[s] = Σ_t A[s][t]·p[t] for every observation row
// (the band-limited A·p mat-vec). Rows are independent and index-addressed,
// so the chunked parallel run is bitwise deterministic. Each row is a
// contiguous slab slice dotted against the matching p window by the unrolled
// kernel; the single-accumulator fold reproduces the scalar loop's rounding
// bit for bit.
func denomPass(w *bandedWeights, counts []int, p, q []float64, workers int) {
	parallel.ForEachChunk(w.m, iterRowChunk, workers, func(_, lo, hi int) {
		for s := lo; s < hi; s++ {
			if counts[s] == 0 {
				q[s] = 0
				continue
			}
			q[s] = dot64(w.data[w.off[s]:w.off[s+1]], p[w.bandLo(s):])
		}
	})
}

// updatePass computes next[t] = Σ_s q[s]·A[s][t]·p[t] + fallback·p[t] (the
// band-limited p ⊙ Aᵀq mat-vec). Each domain interval folds its covering
// rows in increasing s, whether the pass runs serially or chunked over
// disjoint column ranges, so the accumulation is bitwise identical at any
// worker count. p[t] deliberately stays inside the inner product instead of
// being hoisted to next[t] = acc·p[t]: the per-term association reproduces
// the pre-banding kernel's rounding exactly, keeping every committed golden
// (example accuracy, streamed-training equality) stable across the rewrite.
//
// The pass streams the transposed slab: column t's covering rows sit
// contiguously in tData in increasing s — the historical fold order — so the
// old inner-loop address math (w.off[s] + t − w.bandLo(s)) and the repeated
// q/p indexing collapse into one contiguous scaled dot product. Three
// rewrites that are all rounding-neutral, and why:
//   - each unrolled term computes (A·q[s])·p[t] where the old loop computed
//     (q[s]·A)·p[t]: IEEE-754 multiplication is commutative bit for bit;
//   - p[t] is hoisted into the kernel's scale operand, but still multiplies
//     every term individually, preserving the per-term association;
//   - rows with q[s] == 0 are no longer branch-skipped: their term is
//     (A·0)·p[t] = +0, and adding +0 to an accumulator of non-negative terms
//     (weights, coefficients, and estimate entries are all ≥ 0) returns the
//     accumulator unchanged, so every partial sum matches the skipping loop.
func updatePass(w *bandedWeights, q []float64, p, next []float64, fallback float64, workers int) {
	parallel.ForEachChunk(w.k, iterColChunk, workers, func(_, lo, hi int) {
		for t := lo; t < hi; t++ {
			pt := p[t]
			acc := scaledDot64(w.tData[w.tOff[t]:w.tOff[t+1]], q[w.tLo[t]:], pt)
			if fallback > 0 {
				acc += fallback * pt
			}
			next[t] = acc
		}
	})
}
