package bayes

import (
	"errors"
	"fmt"
	"math"

	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
)

// DefaultSmoothing is the Laplace smoothing pseudo-count applied to every
// (class, attribute, interval) cell and to the class priors.
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
	// ReconAlgorithm selects the reconstruction update rule. Reconstruction
	// stops where the tree pipeline's does: at core.DefaultReconEpsilon or
	// at the reconstruct package's iteration cap.
	ReconAlgorithm reconstruct.Algorithm
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

// withDefaults validates the config and fills zero fields; NewTrainStats
// runs it once for every training path.
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
// data plus the noise models it was perturbed with. It trains through
// TrainStream over the table's records, so the two give the same model.
func Train(train *dataset.Table, cfg Config) (*Classifier, error) {
	if train == nil || train.N() == 0 {
		return nil, errors.New("bayes: empty training table")
	}
	return TrainStream(stream.FromTable(train, 0), cfg)
}

// distFromCounts normalizes pre-binned counts with Laplace smoothing
// (DefaultSmoothing) into a new slice; n is the total observation count.
func distFromCounts(counts []float64, n float64) []float64 {
	out := make([]float64, len(counts))
	total := n + DefaultSmoothing*float64(len(counts))
	for b, v := range counts {
		out[b] = (v + DefaultSmoothing) / total
	}
	return out
}

// smooth converts a reconstructed probability vector into expected counts
// for n records and applies the same Laplace smoothing as counting would.
func smooth(p []float64, n float64) []float64 {
	out := make([]float64, len(p))
	total := n + DefaultSmoothing*float64(len(p))
	for b, v := range p {
		out[b] = (v*n + DefaultSmoothing) / total
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

// Evaluate classifies every record of the clean test table: EvaluateStream
// over the table.
func (c *Classifier) Evaluate(test *dataset.Table) (core.Evaluation, error) {
	if test == nil || test.N() == 0 {
		return core.Evaluation{}, errors.New("bayes: empty test table")
	}
	return c.EvaluateStream(stream.FromTable(test, 0))
}
