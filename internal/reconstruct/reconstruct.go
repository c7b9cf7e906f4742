package reconstruct

import (
	"errors"
	"fmt"
	"math"

	"ppdm/internal/noise"
	"ppdm/internal/stats"
)

// Algorithm selects the iterative update rule.
type Algorithm int

const (
	// Bayes is the paper's update with the midpoint density approximation.
	Bayes Algorithm = iota
	// EM is the exact-interval maximum-likelihood update.
	EM
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Bayes:
		return "bayes"
	case EM:
		return "em"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Defaults for Config fields left zero.
const (
	DefaultMaxIters = 500
	DefaultEpsilon  = 1e-4
)

// Config parameterizes Reconstruct.
type Config struct {
	// Partition of the attribute's original domain.
	Partition Partition
	// Noise is the model the values were perturbed with.
	Noise noise.Model
	// Algorithm selects Bayes (default) or EM.
	Algorithm Algorithm
	// MaxIters bounds the iteration count (default DefaultMaxIters).
	MaxIters int
	// Epsilon is the total-variation stopping threshold between successive
	// estimates (default DefaultEpsilon).
	Epsilon float64
	// Prior, if non-nil, is the starting estimate (length Partition.K,
	// non-negative). Nil starts from the uniform distribution, as in the
	// paper. Warm-starting from a nearby estimate (e.g. the previous point
	// of a privacy-level series) cuts the iteration count without changing
	// what the procedure converges towards. Floor such an estimate before
	// chaining it, as eval's warm-started reconstruct series does with
	// 1e-6/K: where the weights hold runs (uniform noise), a run's sum is a
	// difference of prefix sums, exact only to a few roundings of the
	// estimate's total mass, so entries far below that mass lose their
	// relative precision.
	Prior []float64
	// Workers bounds the parallelism of the transition-weight precompute and
	// of the fused iteration passes on large grids; 0 means all cores,
	// negative values are rejected. The result is bit-identical for every
	// worker count.
	Workers int
	// Cache, if non-nil, overrides the shared transition-matrix cache, for
	// a caller that must not share matrices with the rest of the process —
	// a measurement, kernel test or benchmark that starts from a cold
	// cache, say, passes a fresh NewWeightCache. Training passes none: its
	// root and node geometries all go through the shared cache. Cached or
	// not, the computed matrix is bitwise identical.
	Cache *WeightCache
}

// Result reports the reconstructed distribution and convergence behaviour.
type Result struct {
	// P is the estimated probability of each partition interval.
	P []float64
	// Iters is the number of update iterations performed.
	Iters int
	// Converged reports whether the stopping threshold was reached within
	// MaxIters.
	Converged bool
	// Delta is the total-variation change of the final iteration.
	Delta float64
}

// Reconstruct estimates the distribution of the original values from their
// perturbed versions. It never sees the originals: only the perturbed
// values, the noise model, and the domain partition. The values are counted
// on the same bounded grid a Collector keeps, so one stray value cannot size
// the reconstruction.
func Reconstruct(perturbed []float64, cfg Config) (Result, error) {
	if len(perturbed) == 0 {
		return Result{}, errors.New("reconstruct: no perturbed values")
	}
	// A local collector: a one-shot reconstruction allocates only its grid.
	var c Collector
	if err := c.reset(cfg.Partition, cfg.Noise); err != nil {
		return Result{}, err
	}
	if err := c.AddAll(perturbed); err != nil {
		return Result{}, err
	}
	return c.Reconstruct(cfg)
}

// reconstructGrid runs the iterative estimate on a window of observation
// counts; Collector.Reconstruct, and through it Reconstruct, funnel here. The
// banded interaction weights between observation intervals and domain
// intervals come from the cache when an identical geometry was already
// computed (Global/ByClass training recompute the same matrices many times
// over; Local-mode node geometries repeat across subtrees).
func reconstructGrid(obs observationGrid, cfg Config) (Result, error) {
	cfg, err := cfg.resolved()
	if err != nil {
		return Result{}, err
	}
	return iterate(obs, transitionWeights(cfg, obs), cfg)
}

// resolved validates the iteration settings of cfg and fills in the
// defaults of MaxIters and Epsilon.
func (cfg Config) resolved() (Config, error) {
	if cfg.Algorithm != Bayes && cfg.Algorithm != EM {
		return cfg, fmt.Errorf("reconstruct: unknown algorithm %d", int(cfg.Algorithm))
	}
	if cfg.MaxIters == 0 {
		cfg.MaxIters = DefaultMaxIters
	}
	if cfg.MaxIters < 0 {
		return cfg, fmt.Errorf("reconstruct: MaxIters %d must not be negative (0 selects the default %d)", cfg.MaxIters, DefaultMaxIters)
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = DefaultEpsilon
	}
	if cfg.Epsilon < 0 || math.IsNaN(cfg.Epsilon) {
		return cfg, fmt.Errorf("reconstruct: Epsilon %v must not be negative (0 selects the default %v)", cfg.Epsilon, DefaultEpsilon)
	}
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("reconstruct: Workers %d must not be negative (0 means all cores)", cfg.Workers)
	}
	return cfg, nil
}

// iterate runs the estimate on observation counts and their transition
// weights, under a resolved config.
//
// Every observation row's share cnt/n is taken once, before the first
// iteration. Each iteration is then five passes: coefPass computes every
// row's update coefficient share/(A·p) in one band-limited pass over the
// flat weight slab; foldCoefs, serially and in index order, moves the share
// of each row the estimate cannot explain into one fallback coefficient
// and takes the coefficients' prefix sums; updatePass computes
// next = p ⊙ Aᵀq (+ fallback·p); and closePass sums next, then divides by
// the sum, accumulates the total variation and writes the new estimate and
// its prefix sums. Both mat-vec passes read a row's or column's run of
// equal cells as one difference of those prefix sums, so an iteration
// under uniform noise costs O(m+k) rather than O(m·band). Every sum runs in
// the index order of stats.Normalize and stats.TotalVariation, so the
// estimate is the same bits as the pass loop that calls them
// (TestIterateMatchesPassLoop). Iteration state lives in pooled scratch
// buffers, and when the work left after the run compression is large both
// mat-vec passes shard over fixed chunk grids on internal/parallel — the
// estimate is bit-identical at every worker count.
func iterate(obs observationGrid, weights *bandedWeights, cfg Config) (Result, error) {
	k := cfg.Partition.K
	m := len(obs.counts)

	sc := scratchPool.Get().(*iterScratch)
	defer scratchPool.Put(sc)
	sc.ensure(k, m)
	p, next, frac, q, pre := sc.p, sc.next, sc.frac, sc.q, sc.pre

	// Initialize the estimate.
	if cfg.Prior != nil {
		if len(cfg.Prior) != k {
			return Result{}, fmt.Errorf("reconstruct: prior has %d entries, partition has %d", len(cfg.Prior), k)
		}
		copy(p, cfg.Prior)
		for _, v := range p {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return Result{}, fmt.Errorf("reconstruct: invalid prior entry %v", v)
			}
		}
		stats.Normalize(p)
	} else {
		for t := range p {
			p[t] = 1 / float64(k)
		}
	}

	total := 0
	for _, c := range obs.counts {
		total += c
	}
	if total == 0 {
		return Result{}, errors.New("reconstruct: no observations")
	}
	n := float64(total)
	for s, c := range obs.counts {
		frac[s] = float64(c) / n
	}
	prefixSums(p, pre)
	workers := iterWorkers(cfg, weights)
	res := Result{}
	for iter := 1; iter <= cfg.MaxIters; iter++ {
		coefPass(weights, frac, p, pre, q, workers)
		fallback := foldCoefs(q, pre)
		updatePass(weights, q, p, pre, next, fallback, workers)
		res.Iters = iter
		res.Delta = closePass(next, p, pre)
		if res.Delta < cfg.Epsilon {
			res.Converged = true
			break
		}
	}
	res.P = append([]float64(nil), p...)
	return res, nil
}

// observationGrid is a window of observation counts on the partition's
// grid, which reconstructGrid reads in place.
type observationGrid struct {
	// counts[s] is the number of observations in grid interval lowIdx+s.
	counts []int
	// lowIdx is the grid index of counts[0] (may be negative). Together
	// with the partition, noise model, algorithm, band and length it fully
	// determines the transition-weight matrix, which is what makes the
	// matrix cacheable.
	lowIdx int
	// band is the noise model's band radius in intervals (supportRadius).
	band int
}
