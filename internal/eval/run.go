package eval

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"ppdm/internal/assoc"
	"ppdm/internal/bayes"
	"ppdm/internal/cluster"
	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/experiments"
	"ppdm/internal/noise"
	"ppdm/internal/parallel"
	"ppdm/internal/privacy"
	"ppdm/internal/prng"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stats"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// Config parameterizes Run.
type Config struct {
	// Scale multiplies every scenario's synthetic record counts (subject to
	// the MinN floors); 1.0 (or 0) runs full size, CI smokes at 0.1. File
	// datasets are never scaled.
	Scale float64
	// Workers bounds scenario-level and in-scenario parallelism (0 = all
	// cores). Metrics are identical for every value.
	Workers int
	// FileDir resolves relative DataSpec.File paths ("" = current
	// directory).
	FileDir string
	// Baselines maps scenario name -> committed baseline (LoadBaselines).
	// Scenarios without an entry for the run's scale gate as "no-baseline"
	// failures.
	Baselines map[string]*Baseline
}

// measured carries one scenario's raw outcome out of the kind runners.
type measured struct {
	metrics    map[string]float64
	throughput float64
}

// Run executes every scenario at cfg.Scale, in parallel across scenarios,
// and gates the results against cfg.Baselines. A scenario that errors is
// reported in its Result.Err; Run itself only fails on malformed input.
func Run(specs []*Spec, cfg Config) (*Report, error) {
	if len(specs) == 0 {
		return nil, errors.New("eval: no scenarios to run")
	}
	if cfg.Scale == 0 {
		cfg.Scale = 1.0
	}
	if cfg.Scale < 0 {
		return nil, fmt.Errorf("eval: scale %v must be positive", cfg.Scale)
	}
	results, err := parallel.Map(len(specs), cfg.Workers, func(i int) (Result, error) {
		return runOne(specs[i], cfg), nil
	})
	if err != nil {
		return nil, err
	}
	return &Report{Scale: cfg.Scale, Results: results}, nil
}

// runOne executes one scenario and evaluates its gates.
func runOne(s *Spec, cfg Config) Result {
	res := Result{Name: s.Name, Kind: s.EffectiveKind()}
	workers := cfg.Workers
	var (
		m   measured
		err error
	)
	switch res.Kind {
	case KindClassify:
		if s.Classify.Workers != 0 {
			workers = s.Classify.Workers
		}
		m, err = runClassify(s.Classify, cfg, workers)
	case KindReconstruct:
		m, err = runReconstruct(s.Reconstruct, cfg.Scale, workers)
	case KindAssoc:
		m, err = runAssoc(s.Assoc, cfg.Scale, workers)
	case KindResponse:
		m, err = runResponse(s.Response, cfg.Scale)
	default:
		err = fmt.Errorf("eval: unknown kind %q", res.Kind)
	}
	if err != nil {
		res.Err = err.Error()
		return res
	}
	res.Metrics = m.metrics
	res.Throughput = m.throughput
	res.Gates = evaluateGates(s, &res, cfg)
	return res
}

// scaledN scales a synthetic record count, flooring at max(minN, def).
func scaledN(base int, scale float64, minN, def int) int {
	floor := def
	if minN > 0 {
		floor = minN
	}
	n := int(float64(base)*scale + 0.5)
	if n < floor {
		n = floor
	}
	return n
}

// loadData materializes a DataSpec: a scaled synthetic draw or a CSV file
// in the benchmark schema.
func loadData(d *DataSpec, cfg Config, minDef int) (*dataset.Table, error) {
	if d.File != "" {
		path := d.File
		if !filepath.IsAbs(path) && cfg.FileDir != "" {
			path = filepath.Join(cfg.FileDir, path)
		}
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dataset.ReadCSV(f, synth.Schema())
	}
	fn, err := synth.ParseFunction(d.Function)
	if err != nil {
		return nil, err
	}
	return synth.Generate(synth.Config{
		Function: fn,
		N:        scaledN(d.N, cfg.Scale, d.MinN, minDef),
		Seed:     d.Seed,
	})
}

// runClassify drives the perturb → reconstruct → learn → evaluate pipeline
// and measures accuracy, privacy, fidelity, and training throughput.
func runClassify(c *ClassifySpec, cfg Config, workers int) (measured, error) {
	clean, err := loadData(&c.Train, cfg, DefaultMinTrain)
	if err != nil {
		return measured{}, fmt.Errorf("train data: %w", err)
	}
	test, err := loadData(&c.Test, cfg, DefaultMinTest)
	if err != nil {
		return measured{}, fmt.Errorf("test data: %w", err)
	}
	mode, err := core.ParseMode(c.Mode)
	if err != nil {
		return measured{}, err
	}

	train := clean
	var models map[int]noise.Model
	metrics := map[string]float64{}
	if mode != core.Original {
		ns := c.Noise
		conf := ns.Confidence
		if conf == 0 {
			conf = noise.DefaultConfidence
		}
		models, err = noise.ModelsForAllAttrs(clean.Schema(), ns.Family, ns.Privacy, conf)
		if err != nil {
			return measured{}, err
		}
		train, err = noise.PerturbTableWorkers(clean, models, ns.Seed, workers)
		if err != nil {
			return measured{}, err
		}
		metrics[MetricPrivacy], err = meanIntervalPrivacy(clean.Schema(), models, conf)
		if err != nil {
			return measured{}, err
		}
		metrics[MetricFidelity], err = meanReconFidelity(clean, train, models, c, workers)
		if err != nil {
			return measured{}, err
		}
	}

	alg, tailMass := reconstruct.Bayes, 0.0
	if c.Noise != nil {
		if c.Noise.Algorithm == "em" {
			alg = reconstruct.EM
		}
		tailMass = c.Noise.TailMass
	}

	start := time.Now()
	var eval core.Evaluation
	if learner := c.Learner; learner == "nb" {
		bcfg := bayes.Config{
			Mode: mode, Intervals: c.Intervals, Noise: models,
			ReconAlgorithm: alg, ReconTailMass: tailMass,
		}
		var model *bayes.Classifier
		switch {
		case c.Shards > 0:
			model, err = cluster.TrainNaiveBayes(stream.FromTable(train, c.Batch), bcfg, cluster.Options{Shards: c.Shards})
		case c.Stream:
			model, err = bayes.TrainStream(stream.FromTable(train, c.Batch), bcfg)
		default:
			model, err = bayes.Train(train, bcfg)
		}
		if err != nil {
			return measured{}, err
		}
		eval, err = model.Evaluate(test)
	} else {
		ccfg := core.Config{
			Mode: mode, Intervals: c.Intervals, Noise: models,
			ReconAlgorithm: alg, ReconTailMass: tailMass,
			Workers: workers, ColumnCacheSegments: c.SpillCacheSegments,
		}
		var model *core.Classifier
		switch {
		case c.Shards > 0:
			model, err = cluster.TrainTree(stream.FromTable(train, c.Batch), ccfg, cluster.Options{Shards: c.Shards})
		case c.Stream:
			model, err = core.TrainStream(stream.FromTable(train, c.Batch), ccfg)
		default:
			model, err = core.Train(train, ccfg)
		}
		if err != nil {
			return measured{}, err
		}
		eval, err = model.Evaluate(test)
	}
	if err != nil {
		return measured{}, err
	}
	elapsed := time.Since(start)

	metrics[MetricAccuracy] = eval.Accuracy
	return measured{metrics: metrics, throughput: rate(train.N(), elapsed)}, nil
}

// meanIntervalPrivacy averages the paper's confidence-interval privacy
// level (1.0 = 100% of the attribute's domain width) across the perturbed
// attributes.
func meanIntervalPrivacy(s *dataset.Schema, models map[int]noise.Model, conf float64) (float64, error) {
	sum, n := 0.0, 0
	for j, a := range s.Attrs {
		m, ok := models[j]
		if !ok {
			continue
		}
		level, err := privacy.IntervalPrivacy(m, a.Width(), conf)
		if err != nil {
			return 0, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		sum += level
		n++
	}
	if n == 0 {
		return 0, errors.New("no perturbed attributes to measure privacy on")
	}
	return sum / float64(n), nil
}

// meanReconFidelity reconstructs each perturbed attribute's distribution
// from the perturbed column and averages its total-variation distance to
// the clean column's histogram. Lower is better; 0 is exact recovery.
func meanReconFidelity(clean, perturbed *dataset.Table, models map[int]noise.Model, c *ClassifySpec, workers int) (float64, error) {
	k := c.Intervals
	if k == 0 {
		k = 20
	}
	s := clean.Schema()
	attrs := make([]int, 0, len(models))
	for j := range s.Attrs {
		if _, ok := models[j]; ok {
			attrs = append(attrs, j)
		}
	}
	sort.Ints(attrs)
	var alg reconstruct.Algorithm
	if c.Noise != nil && c.Noise.Algorithm == "em" {
		alg = reconstruct.EM
	}
	tvs, err := parallel.Map(len(attrs), workers, func(i int) (float64, error) {
		j := attrs[i]
		a := s.Attrs[j]
		part, err := reconstruct.NewPartition(a.Lo, a.Hi, a.Intervals(k))
		if err != nil {
			return 0, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		res, err := reconstruct.Reconstruct(perturbed.Column(j), reconstruct.Config{
			Partition: part, Noise: models[j], Algorithm: alg,
			Epsilon:  core.DefaultReconEpsilon,
			TailMass: c.Noise.TailMass,
			Workers:  1,
		})
		if err != nil {
			return 0, fmt.Errorf("attribute %q: %w", a.Name, err)
		}
		truth := part.Histogram(clean.Column(j))
		return stats.TotalVariation(truth, res.P)
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, tv := range tvs {
		sum += tv
	}
	return sum / float64(len(tvs)), nil
}

// runReconstruct drives a distribution-recovery series and measures the
// final point's privacy and fidelity plus the series' total iteration
// count (which pins the warm-start behaviour of the E1/E2 figures).
func runReconstruct(r *ReconstructSpec, scale float64, workers int) (measured, error) {
	n := scaledN(r.N, scale, r.MinN, DefaultMinSamples)
	var alg reconstruct.Algorithm
	if r.Algorithm == "em" {
		alg = reconstruct.EM
	}
	start := time.Now()
	points, err := experiments.RunReconSeries(experiments.ReconSeriesConfig{
		Shape: r.Shape, Family: r.Family, Levels: r.Levels,
		N: n, Intervals: r.Intervals, Seed: r.Seed,
		Workers: workers, WarmStart: r.WarmStart, Algorithm: alg,
	})
	if err != nil {
		return measured{}, err
	}
	elapsed := time.Since(start)

	iters := 0
	for _, pt := range points {
		iters += pt.Iters
	}
	last := points[len(points)-1]
	m, err := noise.ForPrivacy(r.Family, last.Level, 100, noise.DefaultConfidence)
	if err != nil {
		return measured{}, err
	}
	priv, err := privacy.IntervalPrivacy(m, 100, noise.DefaultConfidence)
	if err != nil {
		return measured{}, err
	}
	return measured{
		metrics: map[string]float64{
			MetricPrivacy:    priv,
			MetricFidelity:   last.TVRecon,
			MetricIterations: float64(iters),
		},
		throughput: rate(n*len(points), elapsed),
	}, nil
}

// runAssoc mines frequent itemsets from randomized transactions and
// measures itemset-recovery F1, the channel's randomization level, and the
// planted patterns' support-estimation error.
func runAssoc(a *AssocSpec, scale float64, workers int) (measured, error) {
	n := scaledN(a.N, scale, a.MinN, DefaultMinBaskets)
	data, patterns, err := assoc.Generate(assoc.GenConfig{
		N: n, Items: a.Items, Patterns: a.Patterns,
		PatternSize: a.PatternSize, PatternProb: a.PatternProb, Seed: a.Seed,
	})
	if err != nil {
		return measured{}, err
	}
	bf, err := assoc.NewBitFlip(a.Flip)
	if err != nil {
		return measured{}, err
	}
	randomized, err := bf.Randomize(data, a.FlipSeed)
	if err != nil {
		return measured{}, err
	}
	mining := assoc.MiningConfig{MinSupport: a.MinSupport, MaxSize: a.MaxSize, Workers: workers}
	reference, err := assoc.Frequent(data, mining)
	if err != nil {
		return measured{}, err
	}
	start := time.Now()
	mined, err := assoc.FrequentFromRandomized(randomized, bf, mining)
	if err != nil {
		return measured{}, err
	}
	elapsed := time.Since(start)

	both, fp, fn := assoc.CompareMining(reference, mined)
	f1 := 0.0
	if 2*both+fp+fn > 0 {
		f1 = 2 * float64(both) / float64(2*both+fp+fn)
	}
	fidelity, err := patternSupportError(data, randomized, bf, patterns, workers)
	if err != nil {
		return measured{}, err
	}
	return measured{
		metrics: map[string]float64{
			MetricAccuracy: f1,
			// Each planted bit is flipped with probability f both ways, so
			// an adversary's posterior is randomized at level 2f.
			MetricPrivacy:  2 * a.Flip,
			MetricFidelity: fidelity,
		},
		throughput: rate(n, elapsed),
	}, nil
}

// patternSupportError averages |estimated − true| support over the planted
// patterns: how well the channel inversion recovers what the generator hid.
func patternSupportError(data, randomized *assoc.Dataset, bf assoc.BitFlip, patterns [][]int, workers int) (float64, error) {
	if len(patterns) == 0 {
		return 0, nil
	}
	errs, err := parallel.Map(len(patterns), workers, func(i int) (float64, error) {
		truth, err := data.Support(patterns[i])
		if err != nil {
			return 0, err
		}
		est, err := bf.EstimateSupport(randomized, patterns[i])
		if err != nil {
			return 0, err
		}
		return math.Abs(est - truth), nil
	})
	if err != nil {
		return 0, err
	}
	sum := 0.0
	for _, e := range errs {
		sum += e
	}
	return sum / float64(len(errs)), nil
}

// runResponse estimates a categorical prevalence through a Warner
// randomized-response channel and measures the estimate's total-variation
// error and the channel's misreport probability.
func runResponse(r *ResponseSpec, scale float64) (measured, error) {
	n := scaledN(r.N, scale, r.MinN, DefaultMinReports)
	card := len(r.Prevalence)
	rr, err := noise.NewRandomizedResponse(r.Keep, card)
	if err != nil {
		return measured{}, err
	}
	cum := make([]float64, card)
	total := 0.0
	for i, p := range r.Prevalence {
		total += p
		cum[i] = total
	}
	start := time.Now()
	src := prng.New(r.Seed)
	counts := make([]int, card)
	for i := 0; i < n; i++ {
		u := src.Float64() * total
		v := sort.SearchFloat64s(cum, u)
		if v >= card {
			v = card - 1
		}
		counts[rr.Apply(v, src)]++
	}
	est, err := rr.EstimateDistribution(counts)
	if err != nil {
		return measured{}, err
	}
	elapsed := time.Since(start)

	tv := 0.0
	for i, p := range r.Prevalence {
		tv += math.Abs(est[i] - p)
	}
	return measured{
		metrics: map[string]float64{
			// P(report ≠ truth) = (1−keep) · (card−1)/card: the channel's
			// per-report deniability.
			MetricPrivacy:  (1 - r.Keep) * float64(card-1) / float64(card),
			MetricFidelity: tv / 2,
		},
		throughput: rate(n, elapsed),
	}, nil
}

// rate converts a record count and duration to records per second.
func rate(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return float64(n) / d.Seconds()
}
