package reconstruct

import (
	"errors"
	"math"

	"ppdm/internal/noise"
	"ppdm/internal/stats"
)

// This file holds the reference forms tests check the production code
// against: an unbounded observation grid, against which the bounded
// collector grid is checked; dense transition rows, against which the
// banded kernel is checked and benchmarked; and the plain fold, the two
// iteration passes without folds or runs, against which the run kernel is
// checked and benchmarked.

// newObservationGrid is the unbounded grid oracle: intervals of the
// partition's width, aligned to its grid but extended on both sides to
// cover every value, each value binned as int((v−lo)/w). Its band is m's
// band radius.
func newObservationGrid(values []float64, part Partition, m noise.Model) observationGrid {
	w := part.Width()
	minV, maxV := values[0], values[0]
	for _, v := range values[1:] {
		minV, maxV = math.Min(minV, v), math.Max(maxV, v)
	}
	lowIdx := int(math.Floor((minV - part.Lo) / w))
	highIdx := max(int(math.Floor((maxV-part.Lo)/w)), lowIdx)
	band, err := supportRadius(m, w)
	if err != nil {
		panic(err)
	}
	g := observationGrid{counts: make([]int, highIdx-lowIdx+1), lowIdx: lowIdx, band: band}
	lo := gridLo(g, part)
	for _, v := range values {
		i := int((v - lo) / w)
		i = min(max(i, 0), len(g.counts)-1)
		g.counts[i]++
	}
	return g
}

// gridLo returns the lower edge of the grid's first interval.
func gridLo(g observationGrid, part Partition) float64 {
	return part.Lo + float64(g.lowIdx)*part.Width()
}

// reconstructWithRadius runs the reconstruction of values on the oracle
// grid with transition rows of the given band radius, capped at the dense
// radius; math.MaxInt gives dense rows.
func reconstructWithRadius(values []float64, cfg Config, radius int) (Result, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return Result{}, err
	}
	part := cfg.Partition
	obs := newObservationGrid(values, part, cfg.Noise)
	radius = min(radius, denseRadius(part.K, obs.lowIdx, len(obs.counts)))
	w := computeWeights(cfg.Noise, cfg.Algorithm, part.Width(), part.K, obs.lowIdx, len(obs.counts), radius, cfg.Workers)
	return iterate(obs, w, cfg)
}

// reconstructDense runs the reconstruction of values on dense rows.
func reconstructDense(values []float64, cfg Config) (Result, error) {
	return reconstructWithRadius(values, cfg, math.MaxInt)
}

// reconstructPlainFold runs the reconstruction of values on the oracle grid
// with the banded rows Reconstruct uses, iterated by scalarIterate: every
// iteration folds every cell of every band in index order.
func reconstructPlainFold(values []float64, cfg Config) (Result, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return Result{}, err
	}
	obs := newObservationGrid(values, cfg.Partition, cfg.Noise)
	return scalarIterate(obs, transitionWeights(cfg, obs), cfg)
}

// scalarDenomPass is the denominator pass as a plain fold: every cell of
// row s's full band times its p entry, added in index order one product at
// a time. The unrolled kernel reproduces it bit for bit on every row
// without a run.
func scalarDenomPass(w *bandedWeights, counts []int, p, q []float64) {
	for s := 0; s < w.m; s++ {
		if counts[s] == 0 {
			q[s] = 0
			continue
		}
		row := w.row(s)
		bLo := w.bandLo(s)
		var denom float64
		for i, a := range row {
			denom += float64(a * p[bLo+i])
		}
		q[s] = denom
	}
}

// scalarUpdatePass is the update pass as a plain fold: per column, every
// covering row in increasing s, one product at a time, read from the row
// slab through the indirect w.off[s]+t−w.bandLo(s) addressing, with the
// q[s]==0 branch skip.
func scalarUpdatePass(w *bandedWeights, q, p, next []float64, fallback float64) {
	for t := 0; t < w.k; t++ {
		sLo := t - w.lowIdx - w.radius
		if sLo < 0 {
			sLo = 0
		}
		sHi := t - w.lowIdx + w.radius + 1
		if sHi > w.m {
			sHi = w.m
		}
		var acc float64
		for s := sLo; s < sHi; s++ {
			qs := q[s]
			if qs == 0 {
				continue
			}
			acc += float64(qs * w.data[w.off[s]+t-w.bandLo(s)] * p[t])
		}
		if fallback > 0 {
			acc += float64(fallback * p[t])
		}
		next[t] = acc
	}
}

// scalarIterate is iterate on the scalar passes: the reconstruction as it
// ran before rows and columns had folds, every iteration folding every
// cell of every band in index order.
func scalarIterate(obs observationGrid, w *bandedWeights, cfg Config) (Result, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return Result{}, err
	}
	p, next, q := make([]float64, w.k), make([]float64, w.k), make([]float64, w.m)
	if cfg.Prior != nil {
		copy(p, cfg.Prior)
		stats.Normalize(p)
	} else {
		for t := range p {
			p[t] = 1 / float64(w.k)
		}
	}
	total := 0
	for _, c := range obs.counts {
		total += c
	}
	if total == 0 {
		return Result{}, errors.New("no observations")
	}
	n := float64(total)
	var res Result
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		scalarDenomPass(w, obs.counts, p, q)
		var fallback float64
		for s, cnt := range obs.counts {
			if cnt == 0 {
				continue
			}
			frac := float64(cnt) / n
			if q[s] > 0 {
				q[s] = frac / q[s]
			} else {
				q[s] = 0
				fallback += frac
			}
		}
		scalarUpdatePass(w, q, p, next, fallback)
		stats.Normalize(next)
		delta, err := stats.TotalVariation(p, next)
		if err != nil {
			return Result{}, err
		}
		copy(p, next)
		res.Iters, res.Delta = iter, delta
		if delta < cfg.Epsilon {
			res.Converged = true
			break
		}
	}
	res.P = p
	return res, nil
}
