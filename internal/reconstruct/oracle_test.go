package reconstruct

import (
	"math"

	"ppdm/internal/noise"
)

// This file holds the reference forms tests check the production code
// against: an unbounded observation grid, against which the bounded
// collector grid is checked, and dense transition rows, against which the
// banded kernel is checked and benchmarked.

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
