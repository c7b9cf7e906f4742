package ppdm_test

// Pointer-tree vs flattened-tree classification, single vs batch, and the
// serving steady state end to end. The pointer baselines run the
// pre-flattening prediction walk, which survives only here and in the
// golden tests as the oracle (pointerPredict: discretize, then
// tree.Tree.Predict); the flat variants run the same records through the
// classifier's contiguous 16-byte node array.
// The workload is a ~96k-node unpruned tree grown on noisy data: large
// enough that the walk leaves cache and the layout — not parallelism
// (workers pinned to 1) — is what the pairs measure. The bins-level pair
// drops discretization and isolates the walk itself. The serve benchmarks
// drive the full /classify handler chain in-process with a replayable body
// and report allocations, pinning the zero-alloc steady state. Results
// land in BENCH_classify.json. Flat and pointer predictions are asserted
// identical on every example dataset by flat_golden_test.go.

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"ppdm"
	"ppdm/internal/serve"
)

// classifyBenchRecords is the query-batch size of the batched benchmarks.
const classifyBenchRecords = 4096

// benchBigClassifier grows a deliberately large tree — gaussian-perturbed
// attributes, pruning off, MinLeaf 1 — so root-to-leaf walks traverse a
// node set far beyond L1/L2 and the memory layout dominates the walk cost.
// It returns the trained classifier and a clean query set as raw records and
// discretized bins.
func benchBigClassifier(b *testing.B) (clf *ppdm.Classifier, records [][]float64, bins [][]int) {
	b.Helper()
	models, err := ppdm.ModelsForAllAttrs(ppdm.BenchmarkSchema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	table, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F5, N: 300000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(table, models, 2)
	if err != nil {
		b.Fatal(err)
	}
	clf, err = ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.Original, Intervals: 100,
		Tree: ppdm.TreeConfig{MaxDepth: 40, MinLeaf: 1, MinGain: 1e-9, DisablePruning: true}})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F5, N: classifyBenchRecords, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	records = make([][]float64, queries.N())
	bins = make([][]int, queries.N())
	for i := range records {
		records[i] = queries.Row(i)
		bins[i] = make([]int, len(clf.Partitions))
		for j, v := range records[i] {
			bins[i][j] = clf.Partitions[j].Bin(v)
		}
	}
	return clf, records, bins
}

// pointerPredict is the pre-flattening prediction walk: discretize rec
// through the classifier's partitions into bins, then route the bins
// through the pointer tree's heap nodes.
func pointerPredict(clf *ppdm.Classifier, rec []float64, bins []int) (int, error) {
	for j, v := range rec {
		bins[j] = clf.Partitions[j].Bin(v)
	}
	return clf.Tree.Predict(bins)
}

// BenchmarkClassifyPointerBatch is the pre-flattening baseline: discretize
// and walk heap nodes per record into a fresh result slice, as batch
// classification did before the flat layout. One op = the whole
// 4096-record batch.
func BenchmarkClassifyPointerBatch(b *testing.B) {
	clf, records, _ := benchBigClassifier(b)
	bins := make([]int, len(clf.Partitions))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out := make([]int, len(records))
		for r, rec := range records {
			class, err := pointerPredict(clf, rec, bins)
			if err != nil {
				b.Fatal(err)
			}
			out[r] = class
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

// BenchmarkClassifyFlatBatch runs the identical workload through the
// flattened node array (workers pinned to 1 so the delta over PointerBatch
// is pure layout, not parallelism).
func BenchmarkClassifyFlatBatch(b *testing.B) {
	clf, records, _ := benchBigClassifier(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.ClassifyBatch(records, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

// BenchmarkClassifyPointerWalkBatch walks the pointer tree over
// pre-discretized records — the walk alone, no binning.
func BenchmarkClassifyPointerWalkBatch(b *testing.B) {
	clf, _, bins := benchBigClassifier(b)
	out := make([]int, len(bins))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r, rec := range bins {
			class, err := clf.Tree.Predict(rec)
			if err != nil {
				b.Fatal(err)
			}
			out[r] = class
		}
	}
	b.ReportMetric(float64(len(bins)), "records/op")
}

// BenchmarkClassifyFlatWalkBatch is the flat-array counterpart of
// PointerWalkBatch: FlatClassifier.ClassifyBatchInto over the same bins.
func BenchmarkClassifyFlatWalkBatch(b *testing.B) {
	clf, _, bins := benchBigClassifier(b)
	flat, err := clf.Tree.Flatten()
	if err != nil {
		b.Fatal(err)
	}
	out := make([]int, len(bins))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		flat.ClassifyBatchInto(bins, out)
	}
	b.ReportMetric(float64(len(bins)), "records/op")
}

// BenchmarkClassifyPointerSingle is the per-record pointer walk on the same
// tree: one op = one record discretized and routed through heap nodes.
func BenchmarkClassifyPointerSingle(b *testing.B) {
	clf, records, _ := benchBigClassifier(b)
	bins := make([]int, len(clf.Partitions))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pointerPredict(clf, records[i%len(records)], bins); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassifyFlatSingle is the per-record API on the flattened tree
// (Predict: discretize into a stack buffer, walk the node array).
func BenchmarkClassifyFlatSingle(b *testing.B) {
	clf, records, _ := benchBigClassifier(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.Predict(records[i%len(records)]); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serve end-to-end: the full /classify handler chain, in-process ---

// classifyReplayBody is a resettable request body so one http.Request drives
// every iteration without per-op allocations of its own.
type classifyReplayBody struct {
	data []byte
	off  int
}

func (r *classifyReplayBody) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *classifyReplayBody) Close() error { return nil }

// classifyNullWriter discards the response through a reusable header map.
type classifyNullWriter struct {
	header http.Header
	status int
}

func (w *classifyNullWriter) Header() http.Header  { return w.header }
func (w *classifyNullWriter) WriteHeader(code int) { w.status = code }
func (w *classifyNullWriter) Write(p []byte) (int, error) {
	return len(p), nil
}

// benchServeClassify measures the whole handler chain — mux dispatch,
// instrumentation, hand-rolled JSON parse, micro-batcher, prediction cache,
// response render — for one fixed n-record body, steady state
// (b.ReportAllocs shows the zero-alloc contract of TestClassifyHandlerAllocs
// holding under load). The model is the standard ByClass serving tree.
func benchServeClassify(b *testing.B, n int) {
	b.Helper()
	models, err := ppdm.ModelsForAllAttrs(ppdm.BenchmarkSchema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	table, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(table, models, 2)
	if err != nil {
		b.Fatal(err)
	}
	clf, err := ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models})
	if err != nil {
		b.Fatal(err)
	}
	queries, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: n, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	records := make([][]float64, queries.N())
	for i := range records {
		records[i] = queries.Row(i)
	}
	path := filepath.Join(b.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := clf.Save(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	s, err := serve.New(serve.Config{ModelPath: path, MaxBatch: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(s.Close)

	body, err := json.Marshal(map[string]any{"records": records})
	if err != nil {
		b.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/classify", nil)
	rb := &classifyReplayBody{data: body}
	req.Body = rb
	w := &classifyNullWriter{header: make(http.Header)}
	handler := s.Handler()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rb.off = 0
		w.status = 0
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			b.Fatalf("classify: status %d", w.status)
		}
	}
	b.ReportMetric(float64(len(records)), "records/op")
}

// BenchmarkServeClassifySteadySingle is the steady-state single-record
// request; after warm-up the repeated record answers from the prediction
// cache with zero heap allocations per request.
func BenchmarkServeClassifySteadySingle(b *testing.B) {
	benchServeClassify(b, 1)
}

// BenchmarkServeClassifySteadyBatch is the 8-record steady-state request,
// also zero allocations per request.
func BenchmarkServeClassifySteadyBatch(b *testing.B) {
	benchServeClassify(b, 8)
}
