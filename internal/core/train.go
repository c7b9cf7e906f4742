package core

import (
	"errors"
	"fmt"

	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/parallel"
	"ppdm/internal/reconstruct"
	"ppdm/internal/tree"
)

// Defaults used when the corresponding Config field is zero, and the
// reconstruction stopping threshold, which no Config field overrides.
const (
	// DefaultIntervals is the per-attribute interval count used for both
	// reconstruction and tree splits. Attributes with a declared Step get
	// fewer (see effectiveIntervals).
	DefaultIntervals = 50
	// DefaultReconEpsilon is the reconstruction stopping threshold every
	// training run uses, naive Bayes included. It is looser than the
	// reconstruct package default on purpose: early stopping regularizes
	// the deconvolution, and running it to tighter tolerances measurably
	// over-sharpens the estimated distributions and hurts downstream
	// accuracy.
	DefaultReconEpsilon = 1e-3
	// DefaultLocalMinRecords is the node size below which Local mode stops
	// re-reconstructing and falls back to the root ByClass counting
	// (reconstruction on a handful of records is pure noise).
	DefaultLocalMinRecords = 1000
)

// Config parameterizes Train.
type Config struct {
	// Mode selects the training strategy.
	Mode Mode
	// Intervals is the number of equal-width intervals per attribute
	// (default DefaultIntervals). Both reconstruction and tree splits use
	// this partition, as in the paper.
	Intervals int
	// Noise maps attribute index -> the noise model the training values
	// were perturbed with. Required for Global/ByClass/Local; attributes
	// without an entry are treated as unperturbed and binned directly.
	Noise map[int]noise.Model
	// ReconAlgorithm selects reconstruct.Bayes (default) or reconstruct.EM.
	// Every reconstruction stops at DefaultReconEpsilon or at the
	// reconstruct package's iteration cap.
	ReconAlgorithm reconstruct.Algorithm
	// Tree configures the decision-tree learner.
	Tree tree.Config
	// LocalMinRecords is Local mode's re-reconstruction threshold (default
	// DefaultLocalMinRecords).
	LocalMinRecords int
	// Workers bounds the training parallelism (per-attribute and per-class
	// reconstruction, split search, subtree growth); 0 means all cores,
	// negative values are rejected. The trained model is bit-identical for
	// every worker count.
	Workers int
	// SpillDir is where the out-of-core path (SpillShard, MergeShardSpills
	// and TrainStream through them) keeps its column segment files; "" uses
	// the operating system's temp directory. The spill is scratch of one
	// training run and is removed before TrainStream returns. In-memory
	// Train ignores it.
	SpillDir string
}

// Classifier is a trained privacy-preserving decision-tree model: the tree
// plus the attribute partitions used to discretize records at prediction
// time.
type Classifier struct {
	Mode       Mode
	Tree       *tree.Tree
	Schema     *dataset.Schema
	Partitions []reconstruct.Partition

	// flat is the contiguous-array form of Tree that every prediction path
	// walks. newClassifier builds it in Train, MergeShardSpills (which
	// TrainStream runs) and Load; a Classifier assembled any other way has
	// none, and its prediction methods return an error.
	flat *tree.FlatClassifier
}

// Train builds a classifier from the training table according to cfg.Mode.
// For Original pass clean data; for every other mode pass the perturbed
// table (and, for the reconstruction modes, the noise models it was
// perturbed with).
func Train(train *dataset.Table, cfg Config) (*Classifier, error) {
	if train == nil || train.N() == 0 {
		return nil, errors.New("core: empty training table")
	}
	cfg, err := cfg.normalized(train.N())
	if err != nil {
		return nil, err
	}
	s := train.Schema()
	parts, err := attrPartitions(s, cfg.Intervals)
	if err != nil {
		return nil, err
	}

	labels := make([]int, train.N())
	for i := range labels {
		labels[i] = train.Label(i)
	}
	rows := classRows(labels, s.NumClasses())

	// One task per attribute copies its raw column and assigns it. Local
	// routes and falls back on the ByClass assignment, and keeps each
	// perturbed column to re-reconstruct from at every node; the other modes
	// drop a column once it is assigned, so at most Workers are held at once.
	raw := make([][]float64, len(parts))
	cols, err := parallel.Map(len(parts), cfg.Workers, func(j int) ([]int, error) {
		values := train.Column(j)
		if _, perturbed := cfg.Noise[j]; perturbed && cfg.Mode == Local {
			raw[j] = values
		}
		return assignColumn(j, values, rows, parts[j], cfg)
	})
	if err != nil {
		return nil, err
	}
	static, err := staticSource(cols, parts, labels, s.NumClasses())
	if err != nil {
		return nil, err
	}
	var src tree.Source = static
	if cfg.Mode == Local {
		src = &localSource{StaticSource: static, values: raw, parts: parts, cfg: cfg}
	}

	tr, err := tree.Grow(src, cfg.Tree)
	if err != nil {
		return nil, err
	}
	return newClassifier(cfg.Mode, tr, s, parts)
}

// normalized applies defaults and validates the knobs shared by the
// in-memory path (Train) and the out-of-core one (SpillShard and
// MergeShardSpills, which TrainStream runs). n is the training set size,
// which scales the adaptive leaf minimum; a stream reveals it only at the
// merge, which resolves that minimum itself, so both paths resolve the
// identical tree configuration for the same data.
func (cfg Config) normalized(n int) (Config, error) {
	if !cfg.Mode.Valid() {
		return cfg, fmt.Errorf("core: invalid mode %d", int(cfg.Mode))
	}
	if cfg.Intervals == 0 {
		cfg.Intervals = DefaultIntervals
	}
	if cfg.Intervals < 2 {
		return cfg, fmt.Errorf("core: need >= 2 intervals, got %d", cfg.Intervals)
	}
	if cfg.LocalMinRecords < 0 {
		return cfg, fmt.Errorf("core: LocalMinRecords %d must not be negative (0 means DefaultLocalMinRecords)", cfg.LocalMinRecords)
	}
	if cfg.LocalMinRecords == 0 {
		cfg.LocalMinRecords = DefaultLocalMinRecords
	}
	if cfg.Mode.NeedsNoise() && len(cfg.Noise) == 0 {
		return cfg, fmt.Errorf("core: mode %v requires noise models", cfg.Mode)
	}
	if cfg.Workers < 0 {
		return cfg, fmt.Errorf("core: Workers %d must not be negative (0 means all cores)", cfg.Workers)
	}
	if cfg.Tree.MinLeaf == 0 {
		// Perturbed training data carries per-record noise that a
		// fully-grown tree happily memorizes; a sample-size-scaled leaf
		// minimum keeps all modes comparable at every scale.
		cfg.Tree.MinLeaf = adaptiveMinLeaf(n)
	}
	if cfg.Tree.Workers == 0 {
		cfg.Tree.Workers = cfg.Workers
	}
	return cfg, nil
}

// attrPartitions builds one domain partition per schema attribute at the
// configured interval count (capped per attribute by effectiveIntervals).
func attrPartitions(s *dataset.Schema, intervals int) ([]reconstruct.Partition, error) {
	parts := make([]reconstruct.Partition, s.NumAttrs())
	for j, a := range s.Attrs {
		p, err := reconstruct.NewPartition(a.Lo, a.Hi, effectiveIntervals(a, intervals))
		if err != nil {
			return nil, fmt.Errorf("core: attribute %q: %w", a.Name, err)
		}
		parts[j] = p
	}
	return parts, nil
}

// adaptiveMinLeaf returns the default minimum leaf size for n training
// records: roughly sqrt(n), at least 10.
func adaptiveMinLeaf(n int) int {
	m := 10
	for m*m < n {
		m++
	}
	if m < 10 {
		m = 10
	}
	return m
}

// effectiveIntervals caps the interval count at the attribute's natural
// resolution (see dataset.Attribute.Intervals). Splitting a 5-valued
// attribute into 20 intervals makes the reconstruction deconvolution
// ill-conditioned and was measurably worse than no reconstruction at all.
func effectiveIntervals(a dataset.Attribute, k int) int { return a.Intervals(k) }

// staticSource wraps assignment columns in a tree.StaticSource.
func staticSource(cols [][]int, parts []reconstruct.Partition, labels []int, classes int) (*tree.StaticSource, error) {
	bins := make([]int, len(parts))
	for j, p := range parts {
		bins[j] = p.K
	}
	return tree.NewStaticSource(cols, bins, labels, classes)
}

// reconCfg assembles the reconstruction configuration for one attribute:
// the configured algorithm, stopped at DefaultReconEpsilon or at the
// reconstruct package's iteration cap. The inner weight precompute stays
// serial: its callers (one task per attribute, and Local's per-class tasks
// at a node) already run in parallel, and the matrices are cached anyway.
func reconCfg(cfg Config, part reconstruct.Partition, m noise.Model) reconstruct.Config {
	return reconstruct.Config{
		Partition: part,
		Noise:     m,
		Algorithm: cfg.ReconAlgorithm,
		Epsilon:   DefaultReconEpsilon,
		Workers:   1,
	}
}

// assignPerturbed reconstructs the distribution of one set of perturbed
// values — a whole column (Global) or one class's rows of it (ByClass) — and
// maps each value to an interval by ordered re-assignment. errCtx names the
// column (and class) for error reports. assignColumn is its one caller.
func assignPerturbed(values []float64, part reconstruct.Partition, m noise.Model, cfg Config, errCtx string) ([]int, error) {
	res, err := reconstruct.Reconstruct(values, reconCfg(cfg, part, m))
	if err != nil {
		return nil, fmt.Errorf("core: reconstructing %s: %w", errCtx, err)
	}
	return orderedAssign(values, res.P)
}

// classRows lists the rows of each class in ascending order. One training
// builds it once from the labels, and every attribute's per-class
// assignment gathers and scatters through it.
func classRows(labels []int, classes int) [][]int {
	counts := make([]int, classes)
	for _, l := range labels {
		counts[l]++
	}
	rows := make([][]int, classes)
	for c := range rows {
		rows[c] = make([]int, 0, counts[c])
	}
	for r, l := range labels {
		rows[l] = append(rows[l], r)
	}
	return rows
}

// assignColumn is the one step that turns attribute j's raw column into
// interval indices, for in-memory Train and for the shard merge alike. An
// attribute the mode bins directly (Original, Randomized, or no noise
// model) takes its own value's interval. Global reconstructs the
// distribution over the whole column; ByClass, and Local at the root,
// reconstruct it per class over the rows classRows lists. Either way the
// records are handed to intervals in value order (assignPerturbed).
func assignColumn(j int, values []float64, classRows [][]int, part reconstruct.Partition, cfg Config) ([]int, error) {
	m, perturbed := cfg.Noise[j]
	if !cfg.Mode.NeedsNoise() || !perturbed {
		col := make([]int, len(values))
		for i, v := range values {
			col[i] = part.Bin(v)
		}
		return col, nil
	}
	if cfg.Mode == Global {
		return assignPerturbed(values, part, m, cfg, fmt.Sprintf("attribute %d", j))
	}
	col := make([]int, len(values))
	for c, rows := range classRows {
		if len(rows) == 0 {
			continue
		}
		classVals := make([]float64, len(rows))
		for i, r := range rows {
			classVals[i] = values[r]
		}
		bins, err := assignPerturbed(classVals, part, m, cfg, fmt.Sprintf("attribute %d class %d", j, c))
		if err != nil {
			return nil, err
		}
		for i, r := range rows {
			col[r] = bins[i]
		}
	}
	return col, nil
}
