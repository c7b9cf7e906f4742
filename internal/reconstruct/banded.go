package reconstruct

import (
	"math"
	"sync"

	"ppdm/internal/noise"
	"ppdm/internal/parallel"
)

// DefaultTailMass is the total per-row noise mass (both tails combined)
// the banded kernel discards for an unbounded model (Gaussian/Laplace). It
// is far below the statistical noise floor of any reconstruction, so the
// band is numerically indistinguishable from the dense matrix while still
// pruning genuinely negligible tails.
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
// support (supportRadius) so dropped entries are exactly zero for bounded
// noise and carry at most DefaultTailMass total probability mass (both
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
//
// Each row and each column is also described once, at build time, by a
// fold: its nonzero span and at most one run of bit-equal cells inside it
// (describeFold). Under uniform noise a Bayes row is one such run — the
// constant density 1/(2α) — so the passes evaluate it as one prefix-sum
// difference instead of one product per cell; Gaussian and Laplace rows,
// whose cells all differ, have no run and take the plain fold.
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
	rows   []fold    // len m; row s's fold over p, reading data
	cols   []fold    // len k; column t's fold over q, reading tData
	runs   bool      // some row or column has a run: the passes need prefix sums
	work   int       // terms both passes add per iteration, a run counting one
}

// minRun is the shortest run of bit-equal cells a fold evaluates as one
// prefix-sum difference. It keeps two equal neighbours, which any row may
// hold by chance, from breaking the fold of a row that has no real run.
const minRun = 8

// fold describes how one band row (or column) is dotted with its vector x:
// the span x[lo:hi] holds every nonzero cell, read from the slab from index
// at; the cells of the run x[runLo:runHi] all equal v, and those outside it
// are folded in index order. A fold with no run has runLo = runHi = hi.
type fold struct {
	lo, runLo, runHi, hi int
	at                   int
	v                    float64
}

// describeFold returns the fold of cells, a band row or column whose first
// cell sits at slab index at and vector index lo. Zero cells at either end
// are dropped: each adds a zero product to a fold over a finite vector,
// which leaves the fold unchanged bit for bit. The longest run of bit-equal
// cells in what remains (the first, among runs of equal length) becomes the
// fold's run if it is at least minRun long.
func describeFold(cells []float64, at, lo int) fold {
	i, j := 0, len(cells)
	for i < j && cells[i] == 0 {
		i++
	}
	for j > i && cells[j-1] == 0 {
		j--
	}
	f := fold{lo: lo + i, runLo: lo + j, runHi: lo + j, hi: lo + j, at: at + i}
	best, bestAt := 0, 0
	for a := i; a < j; {
		b := a + 1
		for b < j && math.Float64bits(cells[b]) == math.Float64bits(cells[a]) {
			b++
		}
		if b-a > best {
			best, bestAt = b-a, a
		}
		a = b
	}
	if best >= minRun {
		f.runLo, f.runHi, f.v = lo+bestAt, lo+bestAt+best, cells[bestAt]
	}
	return f
}

// work returns the terms the fold adds: its cells outside the run, and one
// for the run.
func (f *fold) work() int {
	if f.runLo == f.runHi {
		return f.hi - f.lo
	}
	return f.hi - f.lo - (f.runHi - f.runLo) + 1
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

// computeWeights builds the banded matrix for one geometry. The per-row
// evaluations run in parallel bounded by workers; rows are index-addressed,
// so the result is bitwise identical at any worker count. The transposed
// column slab is a pure gather of the row slab, so its entries are the same
// bits in a different order. Each row and column is described by its fold
// as soon as its cells are written.
func computeWeights(m noise.Model, alg Algorithm, width float64, k, lowIdx, nObs, radius, workers int) *bandedWeights {
	w := &bandedWeights{k: k, m: nObs, lowIdx: lowIdx, radius: radius}
	w.off = make([]int, nObs+1)
	for s := 0; s < nObs; s++ {
		w.off[s+1] = w.off[s] + w.bandHi(s) - w.bandLo(s)
	}
	w.data = make([]float64, w.off[nObs])
	w.rows = make([]fold, nObs)
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
		w.rows[s] = describeFold(row, w.off[s], lo)
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
	w.cols = make([]fold, k)
	parallel.ForEach(k, workers, func(t int) error {
		col := w.tData[w.tOff[t]:w.tOff[t+1]]
		sLo := w.tLo[t]
		for i := range col {
			s := sLo + i
			col[i] = w.data[w.off[s]+t-w.bandLo(s)]
		}
		w.cols[t] = describeFold(col, w.tOff[t], sLo)
		return nil
	})

	for _, folds := range [][]fold{w.rows, w.cols} {
		for i := range folds {
			w.runs = w.runs || folds[i].runLo < folds[i].runHi
			w.work += folds[i].work()
		}
	}
	return w
}

// iterScratch is the reusable per-call state of the fused iteration:
// the current and next estimates (length k), the per-observation-row
// vector that holds denominators, then update coefficients (length m), and
// the prefix sums of p, then of the coefficients (length max(k, m)+1).
// Instances cycle through scratchPool so steady-state reconstruction — the
// per-node Local-mode path and serving-adjacent callers — performs no
// iteration-state allocation; only the observation grid and the returned
// estimate are fresh per call.
type iterScratch struct {
	p, next []float64
	q       []float64
	pre     []float64
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
	if n := max(k, m) + 1; cap(sc.pre) < n {
		sc.pre = make([]float64, n)
	}
}

// Fixed chunk grids for the parallel accumulation passes. The grids depend
// only on the problem size (determinism contract); iterWorkMin is the
// per-iteration term count of the two passes (bandedWeights.work) below
// which they stay serial — goroutine fan-out costs more than it saves on
// small grids.
const (
	iterRowChunk    = 128
	iterColumnChunk = 128
	iterWorkMin     = 1 << 16
)

// iterWorkers resolves the worker count for the fused iteration passes:
// the configured count, forced serial when the work left after the folds
// compress their runs is too small to amortize scheduling. Results are
// identical either way.
func iterWorkers(cfg Config, w *bandedWeights) int {
	if w.work < iterWorkMin {
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
//
// Each product is converted to float64 before it is added. The Go spec lets
// a compiler fuse x*y + z into one multiply-add that skips the product's
// rounding; arm64, ppc64le, s390x and riscv64 builds do, amd64 builds do
// not. An explicit conversion forbids the fusion, so every architecture
// folds the same bits (TestKernelNoFusedMultiplyAdd), and amd64 compiles
// the same instructions as without it.
func dot64(a, b []float64) float64 {
	b = b[:len(a)]
	var acc float64
	for len(a) >= 4 && len(b) >= 4 {
		acc += float64(a[0] * b[0])
		acc += float64(a[1] * b[1])
		acc += float64(a[2] * b[2])
		acc += float64(a[3] * b[3])
		a, b = a[4:], b[4:]
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		acc += float64(a[i] * b[i])
	}
	return acc
}

// scaledDot64 returns Σ (a[i]·b[i])·scale, folded left to right into one
// accumulator like dot64, with the same explicit rounding of each term. The
// per-term scale placement matches the update rule's historical association
// (q·A)·p — see updatePass.
func scaledDot64(a, b []float64, scale float64) float64 {
	b = b[:len(a)]
	var acc float64
	for len(a) >= 4 && len(b) >= 4 {
		acc += float64(a[0] * b[0] * scale)
		acc += float64(a[1] * b[1] * scale)
		acc += float64(a[2] * b[2] * scale)
		acc += float64(a[3] * b[3] * scale)
		a, b = a[4:], b[4:]
	}
	for i := 0; i < len(a) && i < len(b); i++ {
		acc += float64(a[i] * b[i] * scale)
	}
	return acc
}

// prefixSums sets pre[i] to the sum of x[:i] for i in [0, len(x)],
// accumulated serially in index order, so a run of any fold can take its
// sum as one difference and the sums are the same bits at any worker count.
func prefixSums(x, pre []float64) {
	pre = pre[:len(x)+1]
	var acc float64
	pre[0] = 0
	for i, v := range x {
		acc += v
		pre[i+1] = acc
	}
}

// denomPass computes q[s] = Σ_t A[s][t]·p[t] for every observation row
// (the band-limited A·p mat-vec). Rows are independent and index-addressed,
// so the chunked parallel run is bitwise deterministic.
//
// Each row is evaluated through its fold. The cells before and after the
// run are contiguous slab slices, dotted against the matching p windows by
// the unrolled kernel in index order; the run, whose cells all equal v,
// adds v·(P[runHi] − P[runLo]) between them, where P holds the prefix sums
// of p that the pass takes first — serially, and only when the matrix has a
// run (pre is scratch of length ≥ k+1). A row without a run is one dot64
// over its nonzero span, which is the plain fold of its whole band bit for
// bit: the dropped end cells are zeros. A run's sum rounds differently
// from the cell-by-cell fold: it is exact to a few roundings of the mass
// of p up to the run, not of the run's own. Estimates from the uniform
// start therefore move at the rounding level under uniform noise and not
// at all under noise without runs; a prior with entries far below its
// total mass can move them further (Config.Prior).
//
// The serial run calls denomRows directly: a function literal is
// heap-allocated wherever it is evaluated, so the chunked branch alone
// builds one.
func denomPass(w *bandedWeights, counts []int, p, pre, q []float64, workers int) {
	if w.runs {
		prefixSums(p, pre)
	}
	if workers == 1 {
		denomRows(w, counts, p, pre, q, 0, w.m)
		return
	}
	parallel.ForEachChunk(w.m, iterRowChunk, workers, func(_, lo, hi int) {
		denomRows(w, counts, p, pre, q, lo, hi)
	})
}

// denomRows is denomPass over the rows [lo, hi).
func denomRows(w *bandedWeights, counts []int, p, pre, q []float64, lo, hi int) {
	for s := lo; s < hi; s++ {
		if counts[s] == 0 {
			q[s] = 0
			continue
		}
		f := &w.rows[s]
		var acc float64
		if f.lo < f.runLo {
			acc = dot64(w.data[f.at:f.at+f.runLo-f.lo], p[f.lo:])
		}
		if f.runLo < f.runHi {
			acc += float64(f.v * (pre[f.runHi] - pre[f.runLo]))
			if f.runHi < f.hi {
				acc += dot64(w.data[f.at+f.runHi-f.lo:f.at+f.hi-f.lo], p[f.runHi:])
			}
		}
		q[s] = acc
	}
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
//
// Columns are evaluated through their folds as rows are in denomPass: the
// cells outside the run by scaledDot64 in increasing s, the run as
// (v·(Q[runHi] − Q[runLo]))·p[t], where Q holds the prefix sums of q that
// the pass takes first when the matrix has a run. A column without a run
// folds exactly as before.
func updatePass(w *bandedWeights, q, p, pre, next []float64, fallback float64, workers int) {
	if w.runs {
		prefixSums(q, pre)
	}
	if workers == 1 {
		updateCols(w, q, p, pre, next, fallback, 0, w.k)
		return
	}
	parallel.ForEachChunk(w.k, iterColumnChunk, workers, func(_, lo, hi int) {
		updateCols(w, q, p, pre, next, fallback, lo, hi)
	})
}

// updateCols is updatePass over the columns [lo, hi).
func updateCols(w *bandedWeights, q, p, pre, next []float64, fallback float64, lo, hi int) {
	for t := lo; t < hi; t++ {
		pt := p[t]
		f := &w.cols[t]
		var acc float64
		if f.lo < f.runLo {
			acc = scaledDot64(w.tData[f.at:f.at+f.runLo-f.lo], q[f.lo:], pt)
		}
		if f.runLo < f.runHi {
			acc += float64(f.v * (pre[f.runHi] - pre[f.runLo]) * pt)
			if f.runHi < f.hi {
				acc += scaledDot64(w.tData[f.at+f.runHi-f.lo:f.at+f.hi-f.lo], q[f.runHi:], pt)
			}
		}
		if fallback > 0 {
			acc += float64(fallback * pt)
		}
		next[t] = acc
	}
}
