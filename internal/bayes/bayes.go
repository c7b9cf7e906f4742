package bayes

import (
	"errors"
	"fmt"
	"math"

	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/reconstruct"
)

// DefaultSmoothing is the Laplace smoothing pseudo-count applied to every
// (class, attribute, interval) cell.
const DefaultSmoothing = 1.0

// Config parameterizes Train.
type Config struct {
	// Mode selects the training strategy: core.Original and core.Randomized
	// count the supplied values directly; core.ByClass reconstructs each
	// class-conditional distribution from the perturbed values. (Global and
	// Local have no naïve-Bayes analogue and are rejected.)
	Mode core.Mode
	// Intervals per attribute (default core.DefaultIntervals, capped at
	// each attribute's natural resolution).
	Intervals int
	// Noise maps attribute index -> noise model; required for ByClass.
	Noise map[int]noise.Model
	// ReconAlgorithm, ReconMaxIters, ReconEpsilon tune the reconstruction;
	// zero values use the same defaults as the tree pipeline.
	ReconAlgorithm reconstruct.Algorithm
	ReconMaxIters  int
	ReconEpsilon   float64
	// ReconTailMass bounds the noise mass the banded reconstruction kernel
	// may discard per transition-matrix row for unbounded noise models; zero
	// selects reconstruct.DefaultTailMass, negative disables banding (dense
	// rows for every model).
	ReconTailMass float64
	// Smoothing is the Laplace pseudo-count (default DefaultSmoothing).
	Smoothing float64
}

// Classifier is a trained naïve Bayes model.
type Classifier struct {
	Mode   core.Mode
	Schema *dataset.Schema
	// Priors[c] = P(class c).
	Priors []float64
	// Cond[c][j][b] = P(attribute j in interval b | class c).
	Cond [][][]float64
	// Partitions discretize records at prediction time.
	Partitions []reconstruct.Partition
}

// withDefaults validates the config and fills zero fields; shared by Train
// and TrainStream.
func (cfg Config) withDefaults() (Config, error) {
	switch cfg.Mode {
	case core.Original, core.Randomized, core.ByClass:
	default:
		return cfg, fmt.Errorf("bayes: unsupported mode %v", cfg.Mode)
	}
	if cfg.Intervals == 0 {
		cfg.Intervals = core.DefaultIntervals
	}
	if cfg.Intervals < 2 {
		return cfg, fmt.Errorf("bayes: need >= 2 intervals, got %d", cfg.Intervals)
	}
	if cfg.Smoothing == 0 {
		cfg.Smoothing = DefaultSmoothing
	}
	if cfg.Smoothing < 0 {
		return cfg, fmt.Errorf("bayes: smoothing %v must be non-negative", cfg.Smoothing)
	}
	if cfg.ReconEpsilon == 0 {
		cfg.ReconEpsilon = core.DefaultReconEpsilon
	}
	if cfg.Mode == core.ByClass && len(cfg.Noise) == 0 {
		return cfg, errors.New("bayes: ByClass requires noise models")
	}
	return cfg, nil
}

// partitions builds the per-attribute discretization grids.
func partitions(s *dataset.Schema, intervals int) ([]reconstruct.Partition, error) {
	parts := make([]reconstruct.Partition, s.NumAttrs())
	for j, a := range s.Attrs {
		p, err := reconstruct.NewPartition(a.Lo, a.Hi, a.Intervals(intervals))
		if err != nil {
			return nil, fmt.Errorf("bayes: attribute %q: %w", a.Name, err)
		}
		parts[j] = p
	}
	return parts, nil
}

// Train builds a naïve Bayes classifier. For core.Original pass clean data;
// for core.Randomized pass perturbed data; for core.ByClass pass perturbed
// data plus the noise models it was perturbed with.
func Train(train *dataset.Table, cfg Config) (*Classifier, error) {
	if train == nil || train.N() == 0 {
		return nil, errors.New("bayes: empty training table")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}

	s := train.Schema()
	parts, err := partitions(s, cfg.Intervals)
	if err != nil {
		return nil, err
	}

	k := s.NumClasses()
	clf := &Classifier{
		Mode:       cfg.Mode,
		Schema:     s,
		Priors:     make([]float64, k),
		Cond:       make([][][]float64, k),
		Partitions: parts,
	}
	counts := train.ClassCounts()
	for c := 0; c < k; c++ {
		clf.Priors[c] = (float64(counts[c]) + cfg.Smoothing) / (float64(train.N()) + cfg.Smoothing*float64(k))
		clf.Cond[c] = make([][]float64, s.NumAttrs())
	}

	for j := 0; j < s.NumAttrs(); j++ {
		model, perturbed := cfg.Noise[j]
		useRecon := cfg.Mode == core.ByClass && perturbed
		for c := 0; c < k; c++ {
			values, _ := train.ColumnForClass(j, c)
			var dist []float64
			if useRecon && len(values) > 0 {
				res, err := reconstruct.Reconstruct(values, reconstruct.Config{
					Partition: parts[j],
					Noise:     model,
					Algorithm: cfg.ReconAlgorithm,
					MaxIters:  cfg.ReconMaxIters,
					Epsilon:   cfg.ReconEpsilon,
					TailMass:  cfg.ReconTailMass,
				})
				if err != nil {
					return nil, fmt.Errorf("bayes: reconstructing attribute %d class %d: %w", j, c, err)
				}
				dist = smooth(res.P, float64(len(values)), cfg.Smoothing)
			} else {
				dist = countDistribution(values, parts[j], cfg.Smoothing)
			}
			clf.Cond[c][j] = dist
		}
	}
	return clf, nil
}

// countDistribution bins values and normalizes with Laplace smoothing.
func countDistribution(values []float64, part reconstruct.Partition, alpha float64) []float64 {
	counts := make([]float64, part.K)
	for _, v := range values {
		counts[part.Bin(v)]++
	}
	return distFromCounts(counts, float64(len(values)), alpha)
}

// distFromCounts normalizes pre-binned counts with Laplace smoothing; n is
// the total observation count. It overwrites and returns counts.
func distFromCounts(counts []float64, n, alpha float64) []float64 {
	total := n + alpha*float64(len(counts))
	for b := range counts {
		counts[b] = (counts[b] + alpha) / total
	}
	return counts
}

// smooth converts a reconstructed probability vector into expected counts
// for n records and applies the same Laplace smoothing as counting would.
func smooth(p []float64, n, alpha float64) []float64 {
	out := make([]float64, len(p))
	total := n + alpha*float64(len(p))
	for b, v := range p {
		out[b] = (v*n + alpha) / total
	}
	return out
}

// Predict classifies a record of raw attribute values.
func (c *Classifier) Predict(rec []float64) (int, error) {
	if len(rec) != len(c.Partitions) {
		return 0, fmt.Errorf("bayes: record has %d attributes, classifier expects %d", len(rec), len(c.Partitions))
	}
	// Discretize once up front (the old per-class re-binning repeated the
	// partition lookup k times) into a stack buffer; scores are identical.
	var buf [64]int
	bins := buf[:0]
	if len(rec) > len(buf) {
		bins = make([]int, 0, len(rec))
	}
	for j, v := range rec {
		bins = append(bins, c.Partitions[j].Bin(v))
	}
	return c.predictBins(bins), nil
}

// PredictBins classifies a record that is already discretized to interval
// indices (one per attribute, as produced by Partitions[j].Bin). It is the
// serving fast path — the caller's discretize buffer doubles as its
// prediction-cache key — and allocates nothing.
func (c *Classifier) PredictBins(bins []int) (int, error) {
	if len(bins) != len(c.Partitions) {
		return 0, fmt.Errorf("bayes: record has %d attributes, classifier expects %d", len(bins), len(c.Partitions))
	}
	for j, b := range bins {
		if b < 0 || b >= c.Partitions[j].K {
			return 0, fmt.Errorf("bayes: bin %d of attribute %d outside its %d intervals", b, j, c.Partitions[j].K)
		}
	}
	return c.predictBins(bins), nil
}

// predictBins scores every class on in-range interval indices.
func (c *Classifier) predictBins(bins []int) int {
	best, bestScore := 0, math.Inf(-1)
	for cl := range c.Priors {
		score := math.Log(c.Priors[cl])
		cond := c.Cond[cl]
		for j, b := range bins {
			score += math.Log(cond[j][b])
		}
		if score > bestScore {
			best, bestScore = cl, score
		}
	}
	return best
}

// Evaluate classifies every record of the clean test table.
func (c *Classifier) Evaluate(test *dataset.Table) (core.Evaluation, error) {
	if test == nil || test.N() == 0 {
		return core.Evaluation{}, errors.New("bayes: empty test table")
	}
	if test.Schema().NumAttrs() != len(c.Partitions) {
		return core.Evaluation{}, fmt.Errorf("bayes: test table has %d attributes, classifier expects %d",
			test.Schema().NumAttrs(), len(c.Partitions))
	}
	k := len(c.Priors)
	ev := core.Evaluation{N: test.N(), Confusion: make([][]int, k)}
	for i := range ev.Confusion {
		ev.Confusion[i] = make([]int, k)
	}
	for i := 0; i < test.N(); i++ {
		pred, err := c.Predict(test.Row(i))
		if err != nil {
			return core.Evaluation{}, err
		}
		actual := test.Label(i)
		if actual >= k {
			return core.Evaluation{}, fmt.Errorf("bayes: test label %d outside model's %d classes", actual, k)
		}
		ev.Confusion[actual][pred]++
		if pred == actual {
			ev.Correct++
		}
	}
	ev.Accuracy = float64(ev.Correct) / float64(ev.N)
	return ev, nil
}
