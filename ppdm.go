// Package ppdm is a from-scratch Go reproduction of "Privacy-Preserving
// Data Mining" (Agrawal & Srikant, SIGMOD 2000): building decision-tree
// classifiers over randomized data.
//
// The pipeline has three stages, all exposed through this package:
//
//  1. Perturb — data providers add uniform or gaussian noise to each
//     sensitive attribute, calibrated to a privacy level ("100% privacy"
//     means that with 95% confidence an adversary cannot pin a value down
//     to an interval narrower than the attribute's whole domain width):
//
//     models, _ := ppdm.ModelsForAllAttrs(table.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
//     perturbed, _ := ppdm.PerturbTable(table, models, seed)
//
//  2. Reconstruct — the collector estimates the original distribution of
//     each attribute from the perturbed values and the known noise model,
//     without recovering any individual value:
//
//     res, _ := ppdm.Reconstruct(perturbed.Column(j), ppdm.ReconstructConfig{Partition: part, Noise: models[j]})
//
//  3. Train — a decision tree is induced over the reconstructed
//     distributions with one of the paper's strategies (ByClass is the
//     recommended default) and evaluated on clean data:
//
//     clf, _ := ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models})
//     ev, _ := clf.Evaluate(testTable)
//
// The package also re-exports the synthetic benchmark generator used by the
// paper's evaluation (functions F1–F10 over nine person-record attributes)
// and privacy metrics (confidence-interval, differential-entropy, and
// conditional). The paper's tables and figures are regenerated and gated
// as ppdm-eval scenarios (internal/eval, eval/scenarios).
//
// # Concurrency and determinism
//
// Every hot stage of the pipeline runs on a shared chunked worker-pool
// engine (internal/parallel): record perturbation and synthetic generation
// are processed in fixed-size chunks with per-chunk PRNG substreams,
// training reconstructs attributes (and classes) in parallel, searches
// tree splits across attributes in parallel and grows left/right subtrees
// as fork-join tasks (TreeConfig.SubtreeMinRows sets the cutoff).
// Parallelism is bounded by the Workers field on GenConfig, TrainConfig,
// TreeConfig and ReconstructConfig (and by PerturbTableWorkers); 0 means
// all cores. The bound applies per parallel stage, not globally: nested
// stages each spawn up to Workers goroutines.
//
// All of it obeys one determinism contract: results are a pure function of
// the seed and the inputs, never of the worker count. Work decomposition
// (chunk grids, PRNG substream derivation, reduction order) depends only on
// the problem size, while workers merely race to claim chunks — so Workers:
// 1 and Workers: 64 produce byte-identical tables, models, and eval
// reports. Only wall-clock measurements (eval's throughput metric) vary
// with the worker count.
package ppdm

import (
	"io"

	"ppdm/internal/assoc"
	"ppdm/internal/bayes"
	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/privacy"
	"ppdm/internal/prng"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
	"ppdm/internal/tree"
)

// Streaming types: record batches flowing through the pipeline without the
// full table ever materializing (see internal/stream).
type (
	// RecordBatch is one run of consecutive records of a streamed table.
	RecordBatch = stream.Batch
	// RecordSource yields successive record batches in global order.
	RecordSource = stream.Source
	// StreamWriter encodes record batches as CSV, plain or gzipped.
	StreamWriter = stream.Writer
	// StreamReader decodes a CSV record stream, plain or gzipped; it
	// implements RecordSource.
	StreamReader = stream.Reader
	// StreamStats holds bounded-memory per-attribute, per-class sufficient
	// statistics collected from a record stream.
	StreamStats = reconstruct.StreamStats
)

// DefaultBatchSize is the record-batch length used when a batch size of 0 is
// passed to any streaming constructor.
const DefaultBatchSize = stream.DefaultBatchSize

// Data-model types.
type (
	// Schema describes a table's attributes and class vocabulary.
	Schema = dataset.Schema
	// Attribute describes one column.
	Attribute = dataset.Attribute
	// Table is an in-memory collection of records with class labels.
	Table = dataset.Table
	// Rand is the library's deterministic random source.
	Rand = prng.Source
)

// Perturbation types.
type (
	// NoiseModel is an additive zero-mean noise distribution.
	NoiseModel = noise.Model
	// Uniform is noise uniform on [-Alpha, +Alpha].
	Uniform = noise.Uniform
	// Gaussian is noise distributed N(0, Sigma²).
	Gaussian = noise.Gaussian
	// Laplace is noise with density exp(-|y|/b)/2b — the local
	// differential-privacy mechanism (extension).
	Laplace = noise.Laplace
	// RandomizedResponse perturbs categorical codes (extension).
	RandomizedResponse = noise.RandomizedResponse
)

// Reconstruction types.
type (
	// Partition divides an attribute domain into equal-width intervals.
	Partition = reconstruct.Partition
	// ReconstructConfig parameterizes Reconstruct.
	ReconstructConfig = reconstruct.Config
	// ReconstructResult is a reconstructed distribution plus convergence
	// info.
	ReconstructResult = reconstruct.Result
	// Algorithm selects the reconstruction update rule (Bayes or EM).
	Algorithm = reconstruct.Algorithm
	// Collector accumulates perturbed observations incrementally with
	// O(intervals) memory and reconstructs on demand.
	Collector = reconstruct.Collector
	// WeightCache is a bounded LRU of banded transition matrices; pass one
	// via ReconstructConfig.Cache to isolate a workload from the shared
	// cache.
	WeightCache = reconstruct.WeightCache
	// WeightCacheStats reports a WeightCache's hit/miss counters and size.
	WeightCacheStats = reconstruct.CacheStats
)

// NewWeightCache returns a bounded LRU transition-matrix cache (capacity
// < 1 uses the package default).
func NewWeightCache(capacity int) *WeightCache { return reconstruct.NewWeightCache(capacity) }

// SharedWeightCacheStats reports the shared transition-matrix cache's
// counters.
func SharedWeightCacheStats() WeightCacheStats { return reconstruct.SharedWeightCacheStats() }

// Classification types.
type (
	// Mode is a training strategy (Original … Local).
	Mode = core.Mode
	// TrainConfig parameterizes Train.
	TrainConfig = core.Config
	// Classifier is a trained privacy-preserving decision-tree model.
	Classifier = core.Classifier
	// Evaluation summarizes test accuracy and the confusion matrix.
	Evaluation = core.Evaluation
	// Tree is the underlying decision tree.
	Tree = tree.Tree
	// TreeConfig tunes tree growth.
	TreeConfig = tree.Config
)

// Extension types: naive Bayes over reconstructed distributions and
// association-rule mining over randomized transactions.
type (
	// NaiveBayes is a naive Bayes classifier trained on (possibly
	// reconstructed) interval distributions.
	NaiveBayes = bayes.Classifier
	// NaiveBayesConfig parameterizes TrainNaiveBayes.
	NaiveBayesConfig = bayes.Config
	// Transactions is a boolean market-basket dataset, stored as one
	// TID-bitmap column per item that AddBatch appends to in place.
	Transactions = assoc.Dataset
	// BitFlip is the per-item randomization operator for transactions.
	BitFlip = assoc.BitFlip
	// Itemset is a frequent itemset with its support.
	Itemset = assoc.Itemset
	// MiningConfig bounds Apriori mining.
	MiningConfig = assoc.MiningConfig
	// BasketGenConfig parameterizes GenerateBaskets.
	BasketGenConfig = assoc.GenConfig
)

// Benchmark and privacy types.
type (
	// Function is one of the benchmark's classification functions F1..F10.
	Function = synth.Function
	// GenConfig parameterizes Generate.
	GenConfig = synth.Config
	// ConditionalPrivacy reports prior/posterior entropy privacy.
	ConditionalPrivacy = privacy.ConditionalResult
)

// Training modes (paper §4).
const (
	Original   = core.Original
	Randomized = core.Randomized
	Global     = core.Global
	ByClass    = core.ByClass
	Local      = core.Local
)

// Reconstruction algorithms (paper §3 / PODS'01 extension).
const (
	Bayes = reconstruct.Bayes
	EM    = reconstruct.EM
)

// Benchmark classification functions (§5.1; F6–F10 are extensions).
const (
	F1  = synth.F1
	F2  = synth.F2
	F3  = synth.F3
	F4  = synth.F4
	F5  = synth.F5
	F6  = synth.F6
	F7  = synth.F7
	F8  = synth.F8
	F9  = synth.F9
	F10 = synth.F10
)

// DefaultConfidence is the confidence level at which the paper quotes
// privacy (95%).
const DefaultConfidence = noise.DefaultConfidence

// NewRand returns a deterministic random source.
func NewRand(seed uint64) *Rand { return prng.New(seed) }

// NewSchema validates attributes and class names and builds a Schema.
func NewSchema(attrs []Attribute, classes []string) (*Schema, error) {
	return dataset.NewSchema(attrs, classes)
}

// NumericAttr declares a continuous attribute on [lo, hi].
func NumericAttr(name string, lo, hi float64) Attribute { return dataset.NumericAttr(name, lo, hi) }

// IntegerAttr declares an integer-valued (ordinal) attribute on [lo, hi].
func IntegerAttr(name string, lo, hi float64) Attribute { return dataset.IntegerAttr(name, lo, hi) }

// CategoricalAttr declares a categorical attribute with codes 0..card-1.
func CategoricalAttr(name string, card int) Attribute { return dataset.CategoricalAttr(name, card) }

// NewTable returns an empty table over the schema.
func NewTable(s *Schema) *Table { return dataset.NewTable(s) }

// ReadCSV reads a plain CSV table in the format NewCSVWriter writes: a
// header of the schema's attribute names plus "class", then one row per
// record. A file without records is an error.
func ReadCSV(r io.Reader, s *Schema) (*Table, error) {
	src, err := stream.NewCSVReader(r, s, 0)
	if err != nil {
		return nil, err
	}
	return stream.Collect(src)
}

// BenchmarkSchema returns the paper benchmark's nine-attribute schema.
func BenchmarkSchema() *Schema { return synth.Schema() }

// Generate draws records from the paper's synthetic benchmark.
func Generate(cfg GenConfig) (*Table, error) { return synth.Generate(cfg) }

// GenerateStream returns a source that yields the same records Generate
// would materialize, batch records at a time (0 = DefaultBatchSize) with
// O(batch) memory — byte-identical to Generate for the same config at any
// worker count and batch size.
func GenerateStream(cfg GenConfig, batch int) (RecordSource, error) { return synth.Stream(cfg, batch) }

// StreamTable adapts an in-memory table into a record source.
func StreamTable(t *Table, batch int) RecordSource { return stream.FromTable(t, batch) }

// CollectTable materializes a record source into an in-memory table — the
// inverse of StreamTable.
func CollectTable(src RecordSource) (*Table, error) { return stream.Collect(src) }

// NewCSVWriter starts a plain CSV record stream on w; ReadCSV reads it back.
// Write a table with CopyStream(w, StreamTable(t, 0)), then Close.
func NewCSVWriter(w io.Writer, s *Schema) (*StreamWriter, error) { return stream.NewCSVWriter(w, s) }

// NewStreamWriter starts a gzipped record-batch stream on w; the compressed
// payload is exactly the CSV NewCSVWriter writes.
func NewStreamWriter(w io.Writer, s *Schema) (*StreamWriter, error) { return stream.NewWriter(w, s) }

// NewStreamReader opens a gzipped record-batch stream written by
// StreamWriter (batch 0 = DefaultBatchSize).
func NewStreamReader(r io.Reader, s *Schema, batch int) (*StreamReader, error) {
	return stream.NewReader(r, s, batch)
}

// CopyStream drains a record source into a stream writer and returns the
// number of records copied.
func CopyStream(w *StreamWriter, src RecordSource) (int, error) { return stream.Copy(w, src) }

// NewUniform returns uniform noise on [-alpha, +alpha].
func NewUniform(alpha float64) (Uniform, error) { return noise.NewUniform(alpha) }

// NewGaussian returns gaussian noise with the given standard deviation.
func NewGaussian(sigma float64) (Gaussian, error) { return noise.NewGaussian(sigma) }

// UniformForPrivacy calibrates uniform noise to a privacy level (fraction of
// the domain width) at a confidence level.
func UniformForPrivacy(level, width, conf float64) (Uniform, error) {
	return noise.UniformForPrivacy(level, width, conf)
}

// GaussianForPrivacy calibrates gaussian noise to a privacy level.
func GaussianForPrivacy(level, width, conf float64) (Gaussian, error) {
	return noise.GaussianForPrivacy(level, width, conf)
}

// NewLaplace returns Laplace noise with scale b.
func NewLaplace(b float64) (Laplace, error) { return noise.NewLaplace(b) }

// LaplaceForPrivacy calibrates Laplace noise to the paper's privacy level.
func LaplaceForPrivacy(level, width, conf float64) (Laplace, error) {
	return noise.LaplaceForPrivacy(level, width, conf)
}

// LaplaceForEpsilon calibrates Laplace noise to ε-differential privacy for
// a value whose domain width is width (extension).
func LaplaceForEpsilon(epsilon, width float64) (Laplace, error) {
	return noise.LaplaceForEpsilon(epsilon, width)
}

// ModelsForAllAttrs calibrates one noise model per attribute of the schema,
// all at the same privacy level relative to each attribute's own width.
func ModelsForAllAttrs(s *Schema, family string, level, conf float64) (map[int]NoiseModel, error) {
	return noise.ModelsForAllAttrs(s, family, level, conf)
}

// PerturbTable adds independent noise to each modeled attribute of every
// record (deep copy; deterministic in seed). It parallelizes across all
// cores; the result is identical to PerturbTableWorkers at any worker count.
func PerturbTable(t *Table, models map[int]NoiseModel, seed uint64) (*Table, error) {
	return noise.PerturbTable(t, models, seed)
}

// PerturbTableWorkers is PerturbTable with an explicit bound on the worker
// goroutines (0 = all cores). The output is bit-identical for every worker
// count.
func PerturbTableWorkers(t *Table, models map[int]NoiseModel, seed uint64, workers int) (*Table, error) {
	return noise.PerturbTableWorkers(t, models, seed, workers)
}

// PerturbStream perturbs record batches as they flow — the paper's
// collection model, where each record is randomized before it reaches the
// server. The streamed output is byte-identical to PerturbTableWorkers on
// the materialized table at any worker count and batch size.
func PerturbStream(src RecordSource, models map[int]NoiseModel, seed uint64, workers int) (RecordSource, error) {
	return noise.PerturbStream(src, models, seed, workers)
}

// DiscretizeTable applies the paper's value-class-membership operator.
func DiscretizeTable(t *Table, attrs []int, k int) (*Table, error) {
	return noise.DiscretizeTable(t, attrs, k)
}

// NewPartition divides [lo, hi] into k equal-width intervals.
func NewPartition(lo, hi float64, k int) (Partition, error) {
	return reconstruct.NewPartition(lo, hi, k)
}

// Reconstruct estimates the original distribution of an attribute from its
// perturbed values (paper §3).
func Reconstruct(perturbed []float64, cfg ReconstructConfig) (ReconstructResult, error) {
	return reconstruct.Reconstruct(perturbed, cfg)
}

// NewCollector returns an incremental observation collector over the given
// partition for values perturbed with model: it keeps only O(intervals)
// aggregated counts, never the raw perturbed values, and can reconstruct at
// any point during collection. Its grid is fixed at construction by the
// partition and the model's noise band; a value beyond the band is counted
// in the grid's end cell on its side.
func NewCollector(part Partition, model NoiseModel) (*Collector, error) {
	return reconstruct.NewCollector(part, model)
}

// CollectStreamStats drains a record source in one bounded-memory pass,
// accumulating per-(attribute, class) collectors for every attribute listed
// in parts, each under that attribute's model in models;
// StreamStats.Collector sums an attribute's classes. Reconstruction from
// the collected statistics is bit-identical to reconstructing from
// materialized columns.
func CollectStreamStats(src RecordSource, parts map[int]Partition, models map[int]NoiseModel) (*StreamStats, error) {
	return reconstruct.CollectStream(src, parts, models)
}

// Train builds a privacy-preserving decision-tree classifier (paper §4).
func Train(train *Table, cfg TrainConfig) (*Classifier, error) { return core.Train(train, cfg) }

// TrainStream builds the decision-tree classifier from a record source
// without ever materializing the table: one streaming pass spills columnar
// (SPRINT-style) attribute lists to binary segment files, perturbed
// columns are reconstructed and re-assigned one at a time (each raw column
// is deleted once re-binned), and the tree grows from the spilled lists
// through a bounded segment cache — the sharded merge over one shard. The model
// is byte-identical to Train on the materialized table at every worker
// count and batch size. All modes except Local are supported.
func TrainStream(src RecordSource, cfg TrainConfig) (*Classifier, error) {
	return core.TrainStream(src, cfg)
}

// LoadClassifier restores a classifier saved with Classifier.Save,
// validating the document (it may come from an untrusted source).
func LoadClassifier(r io.Reader) (*Classifier, error) { return core.Load(r) }

// LoadNaiveBayes restores a naive-Bayes model saved with NaiveBayes.Save
// (format "ppdm-nb/1"); the restored model predicts identically to the one
// that was saved.
func LoadNaiveBayes(r io.Reader) (*NaiveBayes, error) { return bayes.Load(r) }

// ParseMode parses a training-mode name ("original" … "local").
func ParseMode(s string) (Mode, error) { return core.ParseMode(s) }

// IntervalPrivacy returns the paper's confidence-interval privacy level of a
// noise model (§2.2).
func IntervalPrivacy(m NoiseModel, width, conf float64) (float64, error) {
	return privacy.IntervalPrivacy(m, width, conf)
}

// EntropyPrivacy returns the differential-entropy privacy Π = 2^h of a
// binned distribution (extension).
func EntropyPrivacy(p []float64, binWidth float64) (float64, error) {
	return privacy.EntropyPrivacy(p, binWidth)
}

// ConditionalPrivacyOf estimates prior and posterior entropy privacy of an
// attribute from its perturbed values (extension).
func ConditionalPrivacyOf(perturbed []float64, part Partition, m NoiseModel) (ConditionalPrivacy, error) {
	return privacy.Conditional(perturbed, part, m)
}

// TrainNaiveBayes builds a naive Bayes classifier over (reconstructed)
// interval distributions — the paper's scheme with a different learner.
func TrainNaiveBayes(train *Table, cfg NaiveBayesConfig) (*NaiveBayes, error) {
	return bayes.Train(train, cfg)
}

// TrainNaiveBayesStream trains the naive Bayes classifier from a record
// source in one bounded-memory pass; the model is identical to
// TrainNaiveBayes on the materialized table.
func TrainNaiveBayesStream(src RecordSource, cfg NaiveBayesConfig) (*NaiveBayes, error) {
	return bayes.TrainStream(src, cfg)
}

// NewTransactions returns an empty market-basket dataset over items
// 0..numItems-1.
func NewTransactions(numItems int) (*Transactions, error) { return assoc.NewDataset(numItems) }

// ReadTransactions parses a plain-text transaction stream — one transaction
// per line, items as space-separated non-negative integer IDs — into a
// market-basket dataset over items 0..numItems-1, ingesting batch-wise so
// parse memory stays O(batch).
func ReadTransactions(r io.Reader, numItems int) (*Transactions, error) {
	return assoc.ReadTransactions(r, numItems)
}

// ReadTransactionsFile reads a transaction file in the ReadTransactions
// format; numItems <= 0 infers the item universe with a first streaming
// pass.
func ReadTransactionsFile(path string, numItems int) (*Transactions, error) {
	return assoc.ReadTransactionsFile(path, numItems)
}

// NewBitFlip validates a per-item flip probability in [0, 0.5).
func NewBitFlip(f float64) (BitFlip, error) { return assoc.NewBitFlip(f) }

// GenerateBaskets draws a synthetic market-basket dataset and returns the
// planted patterns alongside it.
func GenerateBaskets(cfg BasketGenConfig) (*Transactions, [][]int, error) {
	return assoc.Generate(cfg)
}

// FrequentItemsets mines frequent itemsets with exact supports: Apriori's
// itemsets, found level by level by intersecting the item columns.
func FrequentItemsets(d *Transactions, cfg MiningConfig) ([]Itemset, error) {
	return assoc.Frequent(d, cfg)
}

// FrequentFromRandomized mines the original data's frequent itemsets from a
// randomized dataset by inverting the bit-flip channel over each candidate's
// column pattern counts, level by level.
func FrequentFromRandomized(randomized *Transactions, bf BitFlip, cfg MiningConfig) ([]Itemset, error) {
	return assoc.FrequentFromRandomized(randomized, bf, cfg)
}

// CompareMining counts matches, false positives, and false negatives of a
// mined itemset collection against a reference collection.
func CompareMining(reference, mined []Itemset) (both, falsePos, falseNeg int) {
	return assoc.CompareMining(reference, mined)
}
