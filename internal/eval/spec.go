package eval

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"ppdm/internal/core"
	"ppdm/internal/experiments"
	"ppdm/internal/synth"
)

// Scenario kinds.
const (
	// KindClassify is the full perturb → reconstruct → learn → evaluate
	// pipeline (the default kind).
	KindClassify = "classify"
	// KindReconstruct is a distribution-recovery series (the E1/E2
	// figures).
	KindReconstruct = "reconstruct"
	// KindAssoc mines frequent itemsets from randomized transactions.
	KindAssoc = "assoc"
	// KindResponse estimates a categorical prevalence through a Warner
	// randomized-response channel.
	KindResponse = "response"
)

// Metric names a Report can carry. Throughput is the only measured
// (machine-dependent) one; the rest are deterministic.
const (
	MetricAccuracy   = "accuracy"
	MetricPrivacy    = "privacy"
	MetricFidelity   = "fidelity"
	MetricIterations = "iterations"
	MetricThroughput = "throughput"
)

// KnownMetrics lists every metric name a scenario may gate on.
func KnownMetrics() []string {
	return []string{MetricAccuracy, MetricPrivacy, MetricFidelity, MetricIterations, MetricThroughput}
}

// DefaultTolerance is the absolute tolerance applied to every deterministic
// metric a scenario produces when its gate does not set one explicitly.
// Throughput has no default gate: it is measured, so a scenario must opt in
// with Gate.MinRatio.
const DefaultTolerance = 0.005

// Default scaled-workload floors, keeping reduced-scale runs statistically
// meaningful; DataSpec.MinN (or the kind specs' MinN) overrides them.
const (
	DefaultMinTrain   = 500
	DefaultMinTest    = 200
	DefaultMinSamples = 500
	DefaultMinBaskets = 1000
	DefaultMinReports = 1000
)

// Spec is one declarative scenario. Exactly one of the kind sub-specs
// (Classify, Reconstruct, Assoc, Response) must be set, matching Kind.
type Spec struct {
	// Name identifies the scenario; it must be lowercase kebab-case and
	// match the scenario file's base name, and it keys the committed
	// baseline under eval/baselines/<name>.json.
	Name string `json:"name"`
	// Description says what the scenario covers.
	Description string `json:"description,omitempty"`
	// PaperRef ties the scenario to the figure or example it encodes.
	PaperRef string `json:"paper_ref,omitempty"`
	// Kind selects the workload shape; empty means KindClassify.
	Kind string `json:"kind,omitempty"`
	// Classify configures a KindClassify scenario.
	Classify *ClassifySpec `json:"classify,omitempty"`
	// Reconstruct configures a KindReconstruct scenario.
	Reconstruct *ReconstructSpec `json:"reconstruct,omitempty"`
	// Assoc configures a KindAssoc scenario.
	Assoc *AssocSpec `json:"assoc,omitempty"`
	// Response configures a KindResponse scenario.
	Response *ResponseSpec `json:"response,omitempty"`
	// Gates overrides the per-metric gate for metrics this scenario
	// produces. Deterministic metrics without an entry default to an
	// absolute DefaultTolerance gate; throughput without an entry is not
	// gated.
	Gates map[string]Gate `json:"gates,omitempty"`
}

// DataSpec declares a dataset: either a synthetic-benchmark draw
// (Function/N/Seed, scaled by the run's -scale) or a CSV file in the
// benchmark schema (never scaled).
type DataSpec struct {
	// Function is a benchmark classification function ("F1".."F10").
	Function string `json:"function,omitempty"`
	// N is the record count before scaling.
	N int `json:"n,omitempty"`
	// MinN floors the scaled record count (0 = the kind's default floor).
	MinN int `json:"min_n,omitempty"`
	// Seed drives the draw.
	Seed uint64 `json:"seed,omitempty"`
	// File is a CSV path (relative to the run's base directory) in the
	// benchmark schema, mutually exclusive with Function.
	File string `json:"file,omitempty"`
}

// NoiseSpec declares how a classify scenario's training data is perturbed.
type NoiseSpec struct {
	// Family is "uniform", "gaussian", or "laplace".
	Family string `json:"family"`
	// Privacy is the paper's privacy level (1.0 = 100%).
	Privacy float64 `json:"privacy"`
	// Confidence is the privacy confidence level (0 = the paper's 95%).
	Confidence float64 `json:"confidence,omitempty"`
	// Seed drives the perturbation.
	Seed uint64 `json:"seed"`
	// TailMass is the banded reconstruction kernel's per-row discardable
	// noise mass (0 = default, negative = dense rows).
	TailMass float64 `json:"tail_mass,omitempty"`
	// Algorithm is the reconstruction update rule, "bayes" (default) or
	// "em".
	Algorithm string `json:"algorithm,omitempty"`
}

// ClassifySpec configures the perturb → reconstruct → learn → evaluate
// pipeline.
type ClassifySpec struct {
	// Train and Test declare the training (perturbed unless mode is
	// original) and clean test datasets.
	Train DataSpec `json:"train"`
	Test  DataSpec `json:"test"`
	// Noise declares the perturbation; required unless Mode is "original",
	// forbidden otherwise only by omission (original mode must not set it).
	Noise *NoiseSpec `json:"noise,omitempty"`
	// Learner is "tree" (default) or "nb".
	Learner string `json:"learner,omitempty"`
	// Mode is a training mode name ("original" … "local").
	Mode string `json:"mode"`
	// Intervals is the per-attribute interval count (0 = the core
	// default).
	Intervals int `json:"intervals,omitempty"`
	// Stream trains through the bounded-memory streaming path
	// (core.TrainStream / bayes.TrainStream); incompatible with "local".
	Stream bool `json:"stream,omitempty"`
	// Batch is the streamed batch size (0 = the stream default).
	Batch int `json:"batch,omitempty"`
	// Shards trains through the sharded merge path (cluster.TrainNaiveBayes
	// / cluster.TrainTree) with this many in-process shards; the merged
	// model is byte-identical to single-node training, which the
	// cluster-merge scenario pins. Requires Stream; 0 trains single-node.
	Shards int `json:"shards,omitempty"`
	// SpillCacheSegments bounds the streamed tree path's column-segment
	// cache (0 = default).
	SpillCacheSegments int `json:"spill_cache_segments,omitempty"`
	// Workers overrides the run's worker bound for this scenario (0 =
	// inherit); results are identical for every value.
	Workers int `json:"workers,omitempty"`
}

// ReconstructSpec configures a distribution-recovery series
// (experiments.RunReconSeries).
type ReconstructSpec struct {
	// Shape names the sample distribution (experiments.ReconShapes).
	Shape string `json:"shape"`
	// Family is the noise family.
	Family string `json:"family"`
	// Levels are the privacy levels of the series, run in order.
	Levels []float64 `json:"levels"`
	// N is the sample count before scaling.
	N int `json:"n"`
	// MinN floors the scaled sample count (0 = DefaultMinSamples).
	MinN int `json:"min_n,omitempty"`
	// Intervals partitions [0, 100] (0 = 20, the figures' grid).
	Intervals int `json:"intervals,omitempty"`
	// Algorithm is "bayes" (default) or "em".
	Algorithm string `json:"algorithm,omitempty"`
	// Seed drives sampling and perturbation.
	Seed uint64 `json:"seed"`
	// WarmStart chains each point's prior from the previous level (the
	// E1/E2 configuration); the iterations metric pins its effect.
	WarmStart bool `json:"warm_start,omitempty"`
}

// AssocSpec configures frequent-itemset mining over randomized
// transactions.
type AssocSpec struct {
	// N is the transaction count before scaling.
	N int `json:"n"`
	// MinN floors the scaled transaction count (0 = DefaultMinBaskets).
	MinN int `json:"min_n,omitempty"`
	// Items is the item-universe size.
	Items int `json:"items"`
	// Patterns, PatternSize, and PatternProb plant correlated itemsets
	// (0 = the assoc generator defaults).
	Patterns    int     `json:"patterns,omitempty"`
	PatternSize int     `json:"pattern_size,omitempty"`
	PatternProb float64 `json:"pattern_prob,omitempty"`
	// Seed drives basket generation.
	Seed uint64 `json:"seed"`
	// Flip is the per-item bit-flip probability in [0, 0.5).
	Flip float64 `json:"flip"`
	// FlipSeed drives the randomization.
	FlipSeed uint64 `json:"flip_seed"`
	// MinSupport is the mining frequency threshold in (0, 1].
	MinSupport float64 `json:"min_support"`
	// MaxSize bounds the itemset size (0 = the assoc default).
	MaxSize int `json:"max_size,omitempty"`
}

// ResponseSpec configures Warner randomized-response prevalence
// estimation.
type ResponseSpec struct {
	// Keep is the probability a report passes through unrandomized.
	Keep float64 `json:"keep"`
	// Prevalence is the true category distribution being estimated.
	Prevalence []float64 `json:"prevalence"`
	// N is the report count before scaling.
	N int `json:"n"`
	// MinN floors the scaled report count (0 = DefaultMinReports).
	MinN int `json:"min_n,omitempty"`
	// Seed drives report sampling and randomization.
	Seed uint64 `json:"seed"`
}

// Gate bounds one metric against its committed baseline. Exactly one of
// Tolerance and MinRatio must be set.
type Gate struct {
	// Tolerance passes when |value − baseline| <= Tolerance (two-sided,
	// absolute). Zero demands an exact match, which the determinism
	// contract makes meaningful for every metric except throughput.
	Tolerance *float64 `json:"tolerance,omitempty"`
	// MinRatio passes when value >= MinRatio × baseline — the one-sided
	// relative floor for throughput regressions. Values well below 1
	// (e.g. 0.001) keep the gate meaningful across machines of different
	// speed.
	MinRatio *float64 `json:"min_ratio,omitempty"`
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// LoadFile parses and validates one scenario file. Unknown fields are
// rejected, and malformed JSON is reported with its file:line:col position.
func LoadFile(path string) (*Spec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, posError(path, raw, decodeOffset(dec, err), err)
	}
	if dec.More() {
		return nil, posError(path, raw, dec.InputOffset(), errors.New("trailing data after the scenario object"))
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// decodeOffset recovers the best byte offset for a decode error.
func decodeOffset(dec *json.Decoder, err error) int64 {
	var syn *json.SyntaxError
	if errors.As(err, &syn) {
		return syn.Offset
	}
	var typ *json.UnmarshalTypeError
	if errors.As(err, &typ) {
		return typ.Offset
	}
	return dec.InputOffset()
}

// posError renders err as "path:line:col: message".
func posError(path string, raw []byte, offset int64, err error) error {
	if offset < 0 {
		offset = 0
	}
	if offset > int64(len(raw)) {
		offset = int64(len(raw))
	}
	line, col := 1, 1
	for _, b := range raw[:offset] {
		if b == '\n' {
			line++
			col = 1
		} else {
			col++
		}
	}
	return fmt.Errorf("%s:%d:%d: %w", path, line, col, err)
}

// LoadDir loads every *.json scenario in dir, sorted by file name. Each
// scenario's Name must match its file's base name, and names must be
// unique.
func LoadDir(dir string) ([]*Spec, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			files = append(files, e.Name())
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("eval: no scenario files (*.json) in %s", dir)
	}
	sort.Strings(files)
	specs := make([]*Spec, 0, len(files))
	seen := map[string]string{}
	for _, f := range files {
		s, err := LoadFile(filepath.Join(dir, f))
		if err != nil {
			return nil, err
		}
		if want := strings.TrimSuffix(f, ".json"); s.Name != want {
			return nil, fmt.Errorf("%s: scenario name %q must match the file name (%q)", filepath.Join(dir, f), s.Name, want)
		}
		if prev, dup := seen[s.Name]; dup {
			return nil, fmt.Errorf("%s: duplicate scenario name %q (also in %s)", filepath.Join(dir, f), s.Name, prev)
		}
		seen[s.Name] = f
		specs = append(specs, s)
	}
	return specs, nil
}

// EffectiveKind resolves the scenario's kind, defaulting to KindClassify.
func (s *Spec) EffectiveKind() string {
	if s.Kind == "" {
		return KindClassify
	}
	return s.Kind
}

// Metrics lists the deterministic metric names this scenario produces (in
// sorted order); throughput is always produced additionally.
func (s *Spec) Metrics() []string {
	switch s.EffectiveKind() {
	case KindClassify:
		if s.Classify != nil && s.Classify.Mode == "original" {
			return []string{MetricAccuracy}
		}
		return []string{MetricAccuracy, MetricFidelity, MetricPrivacy}
	case KindReconstruct:
		return []string{MetricFidelity, MetricIterations, MetricPrivacy}
	case KindAssoc:
		return []string{MetricAccuracy, MetricFidelity, MetricPrivacy}
	case KindResponse:
		return []string{MetricFidelity, MetricPrivacy}
	}
	return nil
}

// Validate checks the scenario for structural and combinatorial errors:
// exactly one kind sub-spec, parseable modes/learners/functions, legal
// learner/mode and stream/mode combinations, and well-formed gates.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return errors.New("eval: scenario has no name")
	}
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("eval: scenario name %q must be lowercase kebab-case ([a-z0-9-])", s.Name)
	}
	kind := s.EffectiveKind()
	set := 0
	for _, present := range []bool{s.Classify != nil, s.Reconstruct != nil, s.Assoc != nil, s.Response != nil} {
		if present {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("eval: scenario %q must set exactly one of classify/reconstruct/assoc/response, got %d", s.Name, set)
	}
	var err error
	switch kind {
	case KindClassify:
		if s.Classify == nil {
			return fmt.Errorf("eval: scenario %q has kind %q but no classify spec", s.Name, kind)
		}
		err = s.Classify.validate()
	case KindReconstruct:
		if s.Reconstruct == nil {
			return fmt.Errorf("eval: scenario %q has kind %q but no reconstruct spec", s.Name, kind)
		}
		err = s.Reconstruct.validate()
	case KindAssoc:
		if s.Assoc == nil {
			return fmt.Errorf("eval: scenario %q has kind %q but no assoc spec", s.Name, kind)
		}
		err = s.Assoc.validate()
	case KindResponse:
		if s.Response == nil {
			return fmt.Errorf("eval: scenario %q has kind %q but no response spec", s.Name, kind)
		}
		err = s.Response.validate()
	default:
		return fmt.Errorf("eval: scenario %q has unknown kind %q (want classify, reconstruct, assoc, or response)", s.Name, kind)
	}
	if err != nil {
		return fmt.Errorf("eval: scenario %q: %w", s.Name, err)
	}
	return s.validateGates()
}

// validateGates checks gate shape and that gated metrics exist for the
// scenario's kind.
func (s *Spec) validateGates() error {
	gateable := append(s.Metrics(), MetricThroughput)
	for metric, g := range s.Gates {
		found := false
		for _, m := range gateable {
			if m == metric {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("eval: scenario %q gates unknown metric %q (this scenario produces %s)",
				s.Name, metric, strings.Join(gateable, ", "))
		}
		switch {
		case g.Tolerance != nil && g.MinRatio != nil:
			return fmt.Errorf("eval: scenario %q gate %q sets both tolerance and min_ratio (want exactly one)", s.Name, metric)
		case g.Tolerance == nil && g.MinRatio == nil:
			return fmt.Errorf("eval: scenario %q gate %q sets neither tolerance nor min_ratio (want exactly one)", s.Name, metric)
		case g.Tolerance != nil && *g.Tolerance < 0:
			return fmt.Errorf("eval: scenario %q gate %q tolerance %v must not be negative", s.Name, metric, *g.Tolerance)
		case g.MinRatio != nil && *g.MinRatio <= 0:
			return fmt.Errorf("eval: scenario %q gate %q min_ratio %v must be positive", s.Name, metric, *g.MinRatio)
		case g.MinRatio != nil && metric != MetricThroughput:
			return fmt.Errorf("eval: scenario %q gate %q: min_ratio gates only throughput (use tolerance)", s.Name, metric)
		}
	}
	return nil
}

func (d *DataSpec) validate(role string) error {
	switch {
	case d.File != "" && d.Function != "":
		return fmt.Errorf("%s data sets both file and function (want exactly one)", role)
	case d.File != "":
		if d.N != 0 || d.MinN != 0 {
			return fmt.Errorf("%s data is a file; n/min_n apply only to synthetic draws", role)
		}
		return nil
	case d.Function == "":
		return fmt.Errorf("%s data needs a function or a file", role)
	}
	if _, err := synth.ParseFunction(d.Function); err != nil {
		return fmt.Errorf("%s data: %w", role, err)
	}
	if d.N <= 0 {
		return fmt.Errorf("%s data needs a positive n, got %d", role, d.N)
	}
	if d.MinN < 0 {
		return fmt.Errorf("%s data min_n %d must not be negative", role, d.MinN)
	}
	return nil
}

func validNoiseFamily(family string) error {
	switch family {
	case "uniform", "gaussian", "laplace":
		return nil
	}
	return fmt.Errorf("unknown noise family %q (want uniform, gaussian, or laplace)", family)
}

func validAlgorithm(alg string) error {
	switch alg {
	case "", "bayes", "em":
		return nil
	}
	return fmt.Errorf("unknown reconstruction algorithm %q (want bayes or em)", alg)
}

func (n *NoiseSpec) validate() error {
	if err := validNoiseFamily(n.Family); err != nil {
		return err
	}
	if n.Privacy <= 0 {
		return fmt.Errorf("noise privacy level %v must be positive", n.Privacy)
	}
	if n.Confidence < 0 || n.Confidence >= 1 {
		return fmt.Errorf("noise confidence %v must be in [0, 1) (0 selects the default)", n.Confidence)
	}
	return validAlgorithm(n.Algorithm)
}

func (c *ClassifySpec) validate() error {
	mode, err := core.ParseMode(c.Mode)
	if err != nil {
		return err
	}
	if err := c.Train.validate("train"); err != nil {
		return err
	}
	if err := c.Test.validate("test"); err != nil {
		return err
	}
	learner := c.Learner
	if learner == "" {
		learner = "tree"
	}
	switch learner {
	case "tree":
	case "nb":
		switch mode {
		case core.Original, core.Randomized, core.ByClass:
		default:
			return fmt.Errorf("learner nb does not support mode %q (want original, randomized, or byclass)", c.Mode)
		}
	default:
		return fmt.Errorf("unknown learner %q (want tree or nb)", learner)
	}
	if mode == core.Original {
		if c.Noise != nil {
			return errors.New(`mode "original" trains on clean data; drop the noise spec`)
		}
	} else {
		if c.Noise == nil {
			return fmt.Errorf("mode %q needs a noise spec", c.Mode)
		}
		if err := c.Noise.validate(); err != nil {
			return err
		}
	}
	if c.Stream && mode == core.Local {
		return errors.New(`mode "local" cannot stream (it re-reconstructs from node-local raw values)`)
	}
	if c.Intervals < 0 || (c.Intervals > 0 && c.Intervals < 2) {
		return fmt.Errorf("intervals %d must be 0 (default) or >= 2", c.Intervals)
	}
	if c.Batch < 0 {
		return fmt.Errorf("batch %d must not be negative", c.Batch)
	}
	if c.Shards < 0 {
		return fmt.Errorf("shards %d must not be negative (0 trains single-node)", c.Shards)
	}
	if c.Shards > 0 && !c.Stream {
		return errors.New("shards requires stream (the deal grid rides the record stream)")
	}
	if !c.Stream && (c.Batch != 0 || c.SpillCacheSegments != 0) {
		return errors.New("batch/spill_cache_segments apply only with stream")
	}
	if c.SpillCacheSegments < 0 {
		return fmt.Errorf("spill_cache_segments %d must not be negative", c.SpillCacheSegments)
	}
	if c.Workers < 0 {
		return fmt.Errorf("workers %d must not be negative (0 inherits the run's bound)", c.Workers)
	}
	return nil
}

func (r *ReconstructSpec) validate() error {
	shapes := experiments.ReconShapes()
	ok := false
	for _, sh := range shapes {
		if sh == r.Shape {
			ok = true
			break
		}
	}
	if !ok {
		return fmt.Errorf("unknown shape %q (want %s)", r.Shape, strings.Join(shapes, ", "))
	}
	if err := validNoiseFamily(r.Family); err != nil {
		return err
	}
	if len(r.Levels) == 0 {
		return errors.New("reconstruction series needs at least one privacy level")
	}
	for _, l := range r.Levels {
		if l <= 0 {
			return fmt.Errorf("privacy level %v must be positive", l)
		}
	}
	if r.N <= 0 {
		return fmt.Errorf("needs a positive n, got %d", r.N)
	}
	if r.MinN < 0 {
		return fmt.Errorf("min_n %d must not be negative", r.MinN)
	}
	if r.Intervals < 0 || (r.Intervals > 0 && r.Intervals < 2) {
		return fmt.Errorf("intervals %d must be 0 (default) or >= 2", r.Intervals)
	}
	return validAlgorithm(r.Algorithm)
}

func (a *AssocSpec) validate() error {
	if a.N <= 0 {
		return fmt.Errorf("needs a positive n, got %d", a.N)
	}
	if a.MinN < 0 {
		return fmt.Errorf("min_n %d must not be negative", a.MinN)
	}
	if a.Items < 2 {
		return fmt.Errorf("needs an item universe of >= 2, got %d", a.Items)
	}
	if a.Patterns < 0 || a.PatternSize < 0 || a.PatternProb < 0 || a.PatternProb > 1 {
		return errors.New("pattern parameters must be non-negative (pattern_prob in [0, 1])")
	}
	if a.Flip < 0 || a.Flip >= 0.5 {
		return fmt.Errorf("flip probability %v must be in [0, 0.5)", a.Flip)
	}
	if a.MinSupport <= 0 || a.MinSupport > 1 {
		return fmt.Errorf("min_support %v must be in (0, 1]", a.MinSupport)
	}
	if a.MaxSize < 0 {
		return fmt.Errorf("max_size %d must not be negative", a.MaxSize)
	}
	return nil
}

func (r *ResponseSpec) validate() error {
	if r.Keep < 0 || r.Keep > 1 {
		return fmt.Errorf("keep probability %v must be in [0, 1]", r.Keep)
	}
	if len(r.Prevalence) < 2 {
		return fmt.Errorf("prevalence needs >= 2 categories, got %d", len(r.Prevalence))
	}
	sum := 0.0
	for _, p := range r.Prevalence {
		if p < 0 {
			return fmt.Errorf("prevalence entry %v must not be negative", p)
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		return fmt.Errorf("prevalence sums to %v, want 1", sum)
	}
	if r.N <= 0 {
		return fmt.Errorf("needs a positive n, got %d", r.N)
	}
	if r.MinN < 0 {
		return fmt.Errorf("min_n %d must not be negative", r.MinN)
	}
	return nil
}
