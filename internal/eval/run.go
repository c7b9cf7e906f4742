package eval

import (
	"errors"
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"ppdm/internal/assoc"
	"ppdm/internal/bayes"
	"ppdm/internal/cluster"
	"ppdm/internal/core"
	"ppdm/internal/dataset"
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
	var (
		m   measured
		err error
	)
	switch res.Kind {
	case KindClassify:
		m, err = runClassify(s, cfg.Scale, cfg.Workers)
	case KindReconstruct:
		m, err = runReconstruct(s.Reconstruct, cfg.Scale, cfg.Workers)
	case KindAssoc:
		m, err = runAssoc(s, cfg.Scale, cfg.Workers)
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

// loadData materializes one of scenario s's DataSpecs: a scaled synthetic
// draw or a CSV file in the benchmark schema.
func loadData(s *Spec, d *DataSpec, scale float64, minDef int) (*dataset.Table, error) {
	if d.File != "" {
		f, err := os.Open(s.path(d.File))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		src, err := stream.NewCSVReader(f, synth.Schema(), 0)
		if err != nil {
			return nil, err
		}
		return stream.Collect(src)
	}
	fn, err := synth.ParseFunction(d.Function)
	if err != nil {
		return nil, err
	}
	return synth.Generate(synth.Config{
		Function: fn,
		N:        scaledN(d.N, scale, d.MinN, minDef),
		Seed:     d.Seed,
	})
}

// runClassify drives the perturb → reconstruct → learn → evaluate pipeline
// and measures accuracy, privacy, fidelity, and training throughput.
func runClassify(s *Spec, scale float64, workers int) (measured, error) {
	c := s.Classify
	clean, err := loadData(s, &c.Train, scale, DefaultMinTrain)
	if err != nil {
		return measured{}, fmt.Errorf("train data: %w", err)
	}
	test, err := loadData(s, &c.Test, scale, DefaultMinTest)
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
		models, err = noise.ModelsForAllAttrs(clean.Schema(), ns.Family, ns.Privacy, noise.DefaultConfidence)
		if err != nil {
			return measured{}, err
		}
		train, err = noise.PerturbTableWorkers(clean, models, ns.Seed, workers)
		if err != nil {
			return measured{}, err
		}
		metrics[MetricPrivacy], err = meanIntervalPrivacy(clean.Schema(), models)
		if err != nil {
			return measured{}, err
		}
		metrics[MetricFidelity], err = meanReconFidelity(clean, train, models, c, workers)
		if err != nil {
			return measured{}, err
		}
	}

	alg := reconstruct.Bayes
	if c.Noise != nil && c.Noise.Algorithm == "em" {
		alg = reconstruct.EM
	}

	start := time.Now()
	var eval core.Evaluation
	if learner := c.Learner; learner == "nb" {
		bcfg := bayes.Config{
			Mode: mode, Intervals: c.Intervals, Noise: models,
			ReconAlgorithm: alg,
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
			ReconAlgorithm: alg, Workers: workers,
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
// level (1.0 = 100% of the attribute's domain width, at the paper's 95%
// confidence) across the perturbed attributes.
func meanIntervalPrivacy(s *dataset.Schema, models map[int]noise.Model) (float64, error) {
	sum, n := 0.0, 0
	for j, a := range s.Attrs {
		m, ok := models[j]
		if !ok {
			continue
		}
		level, err := privacy.IntervalPrivacy(m, a.Width(), noise.DefaultConfidence)
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
			Epsilon: core.DefaultReconEpsilon,
			Workers: 1,
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
	start := time.Now()
	truth, points, err := reconSeries(r, n, workers)
	if err != nil {
		return measured{}, err
	}
	elapsed := time.Since(start)

	iters := 0
	for _, pt := range points {
		iters += pt.iters
	}
	m, err := noise.ForPrivacy(r.Family, r.Levels[len(r.Levels)-1], 100, noise.DefaultConfidence)
	if err != nil {
		return measured{}, err
	}
	priv, err := privacy.IntervalPrivacy(m, 100, noise.DefaultConfidence)
	if err != nil {
		return measured{}, err
	}
	fidelity, err := stats.TotalVariation(truth, points[len(points)-1].reconstructed)
	if err != nil {
		return measured{}, err
	}
	return measured{
		metrics: map[string]float64{
			MetricPrivacy:    priv,
			MetricFidelity:   fidelity,
			MetricIterations: float64(iters),
		},
		throughput: rate(n*len(points), elapsed),
	}, nil
}

// reconPoint is one privacy level of a reconstruction series: the
// randomized and the reconstructed per-interval distributions of the
// figure, and the iterations the reconstruction took.
type reconPoint struct {
	randomized, reconstructed []float64
	iters                     int
}

// reconSeries draws n samples of the spec's shape on [0, 100], then
// perturbs and reconstructs them at each privacy level in order. It
// returns the samples' true per-interval distribution and one point per
// level. With WarmStart each level's prior is the previous level's
// estimate; the chaining order is fixed, so the series is identical at
// every worker count (only the kernel's inner parallelism scales).
func reconSeries(r *ReconstructSpec, n, workers int) ([]float64, []reconPoint, error) {
	k := r.Intervals
	if k == 0 {
		k = 20
	}
	alg := reconstruct.Bayes
	if r.Algorithm == "em" {
		alg = reconstruct.EM
	}
	original := reconShapes[r.Shape](n, prng.New(r.Seed+1))
	part, err := reconstruct.NewPartition(0, 100, k)
	if err != nil {
		return nil, nil, err
	}
	var prior []float64
	points := make([]reconPoint, 0, len(r.Levels))
	for _, level := range r.Levels {
		m, err := noise.ForPrivacy(r.Family, level, 100, noise.DefaultConfidence)
		if err != nil {
			return nil, nil, err
		}
		nr := prng.New(r.Seed + 2)
		perturbed := make([]float64, n)
		for i, v := range original {
			perturbed[i] = v + m.Sample(nr)
		}
		res, err := reconstruct.Reconstruct(perturbed, reconstruct.Config{
			Partition: part, Noise: m, Algorithm: alg,
			Epsilon: 1e-3, Prior: prior, Workers: workers,
		})
		if err != nil {
			return nil, nil, err
		}
		if r.WarmStart {
			// The update is multiplicative, so an exactly-zero prior entry
			// could never regain mass at later levels; floor the chained
			// prior with a sliver of uniform mass (Reconstruct
			// re-normalizes).
			prior = make([]float64, len(res.P))
			for b, p := range res.P {
				prior[b] = p + 1e-6/float64(k)
			}
		}
		points = append(points, reconPoint{
			randomized: part.Histogram(perturbed), reconstructed: res.P, iters: res.Iters,
		})
	}
	return part.Histogram(original), points, nil
}

// runAssoc mines frequent itemsets from randomized transactions and
// measures itemset-recovery F1, the channel's randomization level, and the
// support-estimation error on the planted patterns, or on the clean
// reference itemsets when the transactions come from a file.
func runAssoc(s *Spec, scale float64, workers int) (measured, error) {
	a := s.Assoc
	var (
		data     *assoc.Dataset
		patterns [][]int
		err      error
	)
	if a.File != "" {
		data, err = assoc.ReadTransactionsFile(s.path(a.File), 0)
	} else {
		data, patterns, err = assoc.Generate(assoc.GenConfig{
			N:     scaledN(a.N, scale, a.MinN, DefaultMinBaskets),
			Items: a.Items, Patterns: a.Patterns,
			PatternSize: a.PatternSize, PatternProb: a.PatternProb, Seed: a.Seed,
		})
	}
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
	if a.File != "" {
		// A file plants no patterns: probe the support error on the
		// itemsets frequent in the clean data instead.
		for _, it := range reference {
			patterns = append(patterns, it.Items)
		}
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
		throughput: rate(data.N(), elapsed),
	}, nil
}

// patternSupportError averages |estimated − true| support over the
// patterns: how well the channel inversion recovers what the data holds.
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
