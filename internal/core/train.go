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

// Defaults used when the corresponding Config field is zero.
const (
	// DefaultIntervals is the per-attribute interval count used for both
	// reconstruction and tree splits. Attributes with a declared Step get
	// fewer (see effectiveIntervals).
	DefaultIntervals = 50
	// DefaultReconEpsilon is the reconstruction stopping threshold used in
	// training. It is looser than the reconstruct package default on
	// purpose: early stopping regularizes the deconvolution, and running it
	// to tighter tolerances measurably over-sharpens the estimated
	// distributions and hurts downstream accuracy.
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
	ReconAlgorithm reconstruct.Algorithm
	// ReconMaxIters and ReconEpsilon tune the reconstruction loop; zero
	// values use the reconstruct package defaults.
	ReconMaxIters int
	ReconEpsilon  float64
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
	// DisableWeightCache bypasses the process-global transition-matrix cache
	// during reconstruction. Set it when measuring training cost, so a run
	// is not timed warm against matrices another run left behind; the
	// trained model is identical either way.
	DisableWeightCache bool
	// SpillDir is where the out-of-core path (TrainStream) keeps its column
	// segment files; "" uses the operating system's temp directory. The
	// spill is scratch of one training run and is removed before TrainStream
	// returns. In-memory Train ignores it.
	SpillDir string
	// ColumnCacheSegments bounds the decoded column segments
	// TrainStream's tree growth holds in memory at once, across all
	// attributes (0 = tree.DefaultCacheSegments). In-memory Train ignores
	// it; the trained model is identical for every value.
	ColumnCacheSegments int
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
	// walks. newClassifier builds it in Train, TrainStream,
	// MergeShardSpills and Load; a Classifier assembled any other way has
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

	// Local routes and falls back on the ByClass assignment; it only adds
	// per-node reconstruction on top of it.
	columns := byClassColumns
	switch cfg.Mode {
	case Original, Randomized:
		columns = directColumns
	case Global:
		columns = globalColumns
	}
	cols, err := columns(train, parts, cfg)
	if err != nil {
		return nil, err
	}
	static, err := staticSource(cols, parts, labels, s.NumClasses())
	if err != nil {
		return nil, err
	}
	var src tree.Source = static
	if cfg.Mode == Local {
		src = &localSource{
			StaticSource: static,
			table:        train,
			parts:        parts,
			cfg:          cfg,
			wcache:       reconstruct.NewWeightCache(localWeightCacheEntries),
		}
	}

	tr, err := tree.Grow(src, cfg.Tree)
	if err != nil {
		return nil, err
	}
	return newClassifier(cfg.Mode, tr, s, parts)
}

// normalized applies defaults and validates the knobs shared by the
// in-memory (Train) and out-of-core (TrainStream) paths. n is the training
// set size, which scales the adaptive leaf minimum; both paths therefore
// resolve the identical tree configuration for the same data.
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
	if cfg.ReconEpsilon == 0 {
		cfg.ReconEpsilon = DefaultReconEpsilon
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

// directColumns bins every value into its own interval: the
// Original/Randomized path. Attributes are binned in parallel.
func directColumns(t *dataset.Table, parts []reconstruct.Partition, cfg Config) ([][]int, error) {
	return parallel.Map(len(parts), cfg.Workers, func(j int) ([]int, error) {
		col := make([]int, t.N())
		for i := 0; i < t.N(); i++ {
			col[i] = parts[j].Bin(t.Row(i)[j])
		}
		return col, nil
	})
}

// reconCfg assembles the reconstruction configuration for one attribute. The
// inner weight precompute stays serial: the per-attribute (and per-class)
// callers below already run in parallel, and the matrices are cached anyway.
func reconCfg(cfg Config, part reconstruct.Partition, m noise.Model) reconstruct.Config {
	return reconstruct.Config{
		Partition:          part,
		Noise:              m,
		Algorithm:          cfg.ReconAlgorithm,
		MaxIters:           cfg.ReconMaxIters,
		Epsilon:            cfg.ReconEpsilon,
		Workers:            1,
		DisableWeightCache: cfg.DisableWeightCache,
	}
}

// assignPerturbed is the shared reconstruction-and-reassignment unit of the
// in-memory and out-of-core paths: it reconstructs the distribution of one
// set of perturbed values — a whole column (Global) or one class's slice of
// it (ByClass) — and maps each value to an interval by ordered
// re-assignment. errCtx names the column (and class) for error reports.
func assignPerturbed(values []float64, part reconstruct.Partition, m noise.Model, cfg Config, errCtx string) ([]int, error) {
	res, err := reconstruct.Reconstruct(values, reconCfg(cfg, part, m))
	if err != nil {
		return nil, fmt.Errorf("core: reconstructing %s: %w", errCtx, err)
	}
	return orderedAssign(values, res.P)
}

// globalColumns implements the Global mode: one reconstruction per attribute
// over all records, then ordered re-assignment. Attributes reconstruct in
// parallel; each column depends only on its own values, so the result is
// worker-count independent.
func globalColumns(t *dataset.Table, parts []reconstruct.Partition, cfg Config) ([][]int, error) {
	return parallel.Map(len(parts), cfg.Workers, func(j int) ([]int, error) {
		values := t.Column(j)
		m, perturbed := cfg.Noise[j]
		if !perturbed {
			col := make([]int, t.N())
			for i, v := range values {
				col[i] = parts[j].Bin(v)
			}
			return col, nil
		}
		return assignPerturbed(values, parts[j], m, cfg, fmt.Sprintf("attribute %d", j))
	})
}

// byClassColumns implements the ByClass mode: per attribute, reconstruct and
// re-assign each class's records independently. The attribute × class tasks
// are flattened into one parallel work list; each task writes a disjoint set
// of rows of its own column.
func byClassColumns(t *dataset.Table, parts []reconstruct.Partition, cfg Config) ([][]int, error) {
	s := t.Schema()
	classes := s.NumClasses()
	cols := make([][]int, len(parts))
	for j := range cols {
		cols[j] = make([]int, t.N())
	}
	err := parallel.ForEach(len(parts)*classes, cfg.Workers, func(task int) error {
		j, c := task/classes, task%classes
		col := cols[j]
		m, perturbed := cfg.Noise[j]
		if !perturbed {
			if c != 0 {
				return nil // unperturbed attributes are binned once, by task c=0
			}
			for i := 0; i < t.N(); i++ {
				col[i] = parts[j].Bin(t.Row(i)[j])
			}
			return nil
		}
		values, rowIdx := t.ColumnForClass(j, c)
		if len(values) == 0 {
			return nil
		}
		bins, err := assignPerturbed(values, parts[j], m, cfg, fmt.Sprintf("attribute %d class %d", j, c))
		if err != nil {
			return err
		}
		for i, row := range rowIdx {
			col[row] = bins[i]
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return cols, nil
}
