package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"

	"ppdm/internal/bayes"
	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/reconstruct"
)

// Predictor is the prediction surface the server needs from a trained
// model: per-record prediction plus the worker-engine batch path. Both the
// decision-tree (core.Classifier) and naive-Bayes (bayes.Classifier)
// learners satisfy it; predictions must be safe for concurrent use.
type Predictor interface {
	Predict(rec []float64) (int, error)
	ClassifyBatch(records [][]float64, workers int) ([]int, error)
}

// binsPredictor is the optional allocation-free fast path a Predictor may
// offer: classify a record already discretized to interval indices. Both
// built-in learners implement it; the micro-batcher uses it to answer
// small cache-miss sets without touching the heap. Predictors without it
// (e.g. test fakes) ride the ClassifyBatch fallback.
type binsPredictor interface {
	PredictBins(bins []int) (int, error)
}

// Model is one loaded, immutable model snapshot: the predictor plus the
// metadata the endpoints report and the per-snapshot prediction cache.
// Snapshots are swapped whole on hot reload, so everything hanging off a
// Model — including cached predictions — is consistent with exactly one set
// of parameters by construction.
type Model struct {
	// Predictor answers queries.
	Predictor Predictor
	// Format is the serialization format the model was loaded from
	// (core.ModelFormat or bayes.ModelFormat).
	Format string
	// Schema describes the records the model classifies.
	Schema *dataset.Schema
	// Partitions discretize records; the prediction-cache key is the vector
	// of interval indices.
	Partitions []reconstruct.Partition
	// Mode names the training strategy the model was built with.
	Mode string
	// Path is the file the model was loaded from.
	Path string
	// LoadedAt is when this snapshot was read.
	LoadedAt time.Time
	// Generation counts loads within one server lifetime, starting at 1.
	Generation int64

	cache *lru

	infoOnce sync.Once
	infoJSON []byte
}

// appendKey appends the discretized form of a record — the vector of
// partition interval indices, as uvarints — to buf and returns the extended
// slice: the compact cache key the micro-batcher renders, without
// allocating, before probing the cache. Records that land in the same
// intervals are classified identically by either learner's discretized
// model, which is what makes the prediction cache sound.
func (m *Model) appendKey(buf []byte, rec []float64) []byte {
	for j, v := range rec {
		buf = appendUvarint(buf, uint64(m.Partitions[j].Bin(v)))
	}
	return buf
}

// appendBins appends rec's interval index per attribute to bins, the
// discretized form PredictBins consumes.
func (m *Model) appendBins(bins []int, rec []float64) []int {
	for j, v := range rec {
		bins = append(bins, m.Partitions[j].Bin(v))
	}
	return bins
}

// infoBytes returns the snapshot's modelInfo pre-rendered as indented JSON
// (prefix "  ", matching its nesting depth inside the /classify response),
// computed once per snapshot. A Model is immutable after construction, so
// the bytes never go stale; sharing one rendering keeps the response hot
// path free of per-request encoding allocations.
func (m *Model) infoBytes() []byte {
	m.infoOnce.Do(func() {
		b, err := json.MarshalIndent(info(m), "  ", "  ")
		if err == nil {
			m.infoJSON = b
		}
	})
	return m.infoJSON
}

// appendUvarint appends a minimal little-endian base-128 encoding of v.
func appendUvarint(buf []byte, v uint64) []byte {
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// CheckRecord validates one record's width against the model schema.
func (m *Model) CheckRecord(rec []float64) error {
	if len(rec) != m.Schema.NumAttrs() {
		return fmt.Errorf("serve: record has %d attributes, model expects %d", len(rec), m.Schema.NumAttrs())
	}
	return nil
}

// LoadModelFile reads a saved model of any supported format (dispatching on
// the document's "format" field) and wraps it in a Model snapshot.
// cacheSize bounds the snapshot's prediction cache (0 disables caching).
func LoadModelFile(path string, cacheSize int) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("serve: reading model: %w", err)
	}
	format, err := core.PeekFormat(data)
	if err != nil {
		return nil, err
	}
	m := &Model{Format: format, Path: path, LoadedAt: time.Now()}
	switch format {
	case core.ModelFormat:
		clf, err := core.Load(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		m.Predictor, m.Schema, m.Partitions, m.Mode = clf, clf.Schema, clf.Partitions, clf.Mode.String()
	case bayes.ModelFormat:
		clf, err := bayes.Load(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		m.Predictor, m.Schema, m.Partitions, m.Mode = clf, clf.Schema, clf.Partitions, clf.Mode.String()
	default:
		return nil, fmt.Errorf("serve: unsupported model format %q (this build reads %q and %q)",
			format, core.ModelFormat, bayes.ModelFormat)
	}
	if cacheSize > 0 {
		m.cache = newLRU(cacheSize)
	}
	return m, nil
}
