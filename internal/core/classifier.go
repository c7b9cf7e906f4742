package core

import (
	"errors"
	"fmt"
	"io"

	"ppdm/internal/dataset"
	"ppdm/internal/parallel"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
	"ppdm/internal/tree"
)

// maxStackBins is the record width up to which prediction discretizes into
// a stack array instead of allocating; schemas wider than this are rare and
// merely fall back to one heap slice per call.
const maxStackBins = 64

// classifyChunk is the record-chunk grid of the batched flat-tree walk. It
// only shapes scheduling: outputs are index-addressed, so results are
// identical at every worker count.
const classifyChunk = 256

// errNotBuilt is returned by the prediction paths of a Classifier that did
// not come from Train, TrainStream, MergeShardSpills or Load, and so has no
// flattened tree to walk.
var errNotBuilt = errors.New("core: classifier was not built by Train, TrainStream, MergeShardSpills or Load")

// newClassifier assembles a trained model and packs its tree into the
// flattened form every prediction path walks. All construction sites go
// through it, so a tree that cannot flatten is reported where it was built.
func newClassifier(mode Mode, tr *tree.Tree, s *dataset.Schema, parts []reconstruct.Partition) (*Classifier, error) {
	flat, err := tr.Flatten()
	if err != nil {
		return nil, err
	}
	return &Classifier{Mode: mode, Tree: tr, Schema: s, Partitions: parts, flat: flat}, nil
}

// Predict classifies a record of raw attribute values (clean test data): the
// record is discretized through the classifier's partitions and routed
// through the flattened tree. Steady-state calls allocate nothing.
func (c *Classifier) Predict(rec []float64) (int, error) {
	if c.flat == nil {
		return 0, errNotBuilt
	}
	if len(rec) != len(c.Partitions) {
		return 0, fmt.Errorf("core: record has %d attributes, classifier expects %d", len(rec), len(c.Partitions))
	}
	var buf [maxStackBins]int
	bins := buf[:0]
	if len(rec) > maxStackBins {
		bins = make([]int, 0, len(rec))
	}
	for j, v := range rec {
		bins = append(bins, c.Partitions[j].Bin(v))
	}
	return c.flat.Classify(bins), nil
}

// PredictBins classifies a record that is already discretized to interval
// indices (one per attribute). It is the serving fast path: the caller's
// discretize buffer doubles as the prediction-cache key, so the record is
// binned exactly once per request. Allocation-free.
func (c *Classifier) PredictBins(bins []int) (int, error) {
	if c.flat == nil {
		return 0, errNotBuilt
	}
	if len(bins) != len(c.Partitions) {
		return 0, fmt.Errorf("core: record has %d attributes, classifier expects %d", len(bins), len(c.Partitions))
	}
	return c.flat.Classify(bins), nil
}

// ClassifyBatch classifies a batch of records concurrently on the worker
// engine (workers 0 = all cores) and returns one class index per record, in
// input order. Prediction is read-only on the model, so ClassifyBatch is
// safe to call from many goroutines at once — it is the serving hot path.
// On error the smallest-index record's error is returned.
//
// The flattened tree is walked in record chunks — the contiguous node array
// stays cache-resident across the whole chunk — which is what makes batch
// classification markedly faster than per-record pointer walks (see
// BENCH_classify.json).
func (c *Classifier) ClassifyBatch(records [][]float64, workers int) ([]int, error) {
	if c.flat == nil {
		return nil, errNotBuilt
	}
	for _, rec := range records {
		if len(rec) != len(c.Partitions) {
			return nil, fmt.Errorf("core: record has %d attributes, classifier expects %d", len(rec), len(c.Partitions))
		}
	}
	out := make([]int, len(records))
	parts, flat := c.Partitions, c.flat
	parallel.ForEachChunk(len(records), classifyChunk, workers, func(_, lo, hi int) {
		var buf [maxStackBins]int
		bins := buf[:]
		if len(parts) > maxStackBins {
			bins = make([]int, len(parts))
		}
		bins = bins[:len(parts)]
		for i := lo; i < hi; i++ {
			rec := records[i][:len(parts)] // widths validated above; frees the inner loop of bounds checks
			for j := range bins {
				bins[j] = parts[j].Bin(rec[j])
			}
			out[i] = flat.Classify(bins)
		}
	})
	return out, nil
}

// ClassifyBatchWith fans a batch of records across the worker engine through
// an arbitrary per-record predict function, returning one class index per
// record in input order. The naive-Bayes classifier's ClassifyBatch runs on
// it. predict must be safe for concurrent use.
func ClassifyBatchWith(records [][]float64, workers int, predict func(rec []float64) (int, error)) ([]int, error) {
	return parallel.Map(len(records), workers, func(i int) (int, error) {
		return predict(records[i])
	})
}

// Evaluation summarizes classifier performance on a test table.
type Evaluation struct {
	N        int
	Correct  int
	Accuracy float64
	// Confusion[actual][predicted] counts test records.
	Confusion [][]int
}

// Evaluate classifies every record of the test table and reports accuracy:
// EvaluateStream over the table. As in the paper, the test data should be
// clean (unperturbed).
func (c *Classifier) Evaluate(test *dataset.Table) (Evaluation, error) {
	if c.flat == nil {
		return Evaluation{}, errNotBuilt
	}
	if test == nil || test.N() == 0 {
		return Evaluation{}, errors.New("core: empty test table")
	}
	return c.EvaluateStream(stream.FromTable(test, 0))
}

// EvaluateStream classifies every record of a streamed clean test set,
// holding only one batch in memory at a time.
func (c *Classifier) EvaluateStream(src stream.Source) (Evaluation, error) {
	if c.flat == nil {
		return Evaluation{}, errNotBuilt
	}
	return EvaluateStreamWith(src, len(c.Partitions), c.Tree.NumClasses, c.Predict)
}

// EvaluateStreamWith drains a streamed clean test set through a per-record
// predict function, accumulating accuracy and the confusion matrix with one
// batch in memory at a time. numAttrs is the record width the model
// expects and k its class count. It backs the EvaluateStream methods of
// both the decision-tree and naive-Bayes classifiers, so the streamed
// evaluation semantics cannot drift between learners.
func EvaluateStreamWith(src stream.Source, numAttrs, k int, predict func(rec []float64) (int, error)) (Evaluation, error) {
	s := src.Schema()
	if s.NumAttrs() != numAttrs {
		return Evaluation{}, fmt.Errorf("core: test stream has %d attributes, classifier expects %d",
			s.NumAttrs(), numAttrs)
	}
	ev := Evaluation{Confusion: make([][]int, k)}
	for i := range ev.Confusion {
		ev.Confusion[i] = make([]int, k)
	}
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Evaluation{}, err
		}
		if err := stream.CheckBatch(s, b); err != nil {
			return Evaluation{}, err
		}
		for i := 0; i < b.N(); i++ {
			pred, err := predict(b.Row(i))
			if err != nil {
				return Evaluation{}, err
			}
			actual := b.Labels[i]
			if actual >= k {
				return Evaluation{}, fmt.Errorf("core: test label %d outside model's %d classes", actual, k)
			}
			ev.Confusion[actual][pred]++
			if pred == actual {
				ev.Correct++
			}
			ev.N++
		}
	}
	if ev.N == 0 {
		return Evaluation{}, errors.New("core: empty test stream")
	}
	ev.Accuracy = float64(ev.Correct) / float64(ev.N)
	return ev, nil
}
