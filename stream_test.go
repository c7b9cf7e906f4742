package ppdm_test

// End-to-end equivalence of the streaming and in-memory pipelines, verified
// through the public facade: for the same seeds, a table that is generated,
// perturbed, and reconstructed batch by batch — never materialized — must
// produce byte-identical artifacts to the in-memory path, at Workers=1 and
// Workers=8 and at batch sizes both aligned and unaligned with the chunk
// grids.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"io"
	"testing"

	"ppdm"
)

// streamedPipeline runs gen → perturb through the streaming path and writes
// the gzipped batch stream into a buffer.
func streamedPipeline(t *testing.T, n, batch, workers int) []byte {
	t.Helper()
	src, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F2, N: n, Seed: 7, Workers: workers}, batch)
	if err != nil {
		t.Fatal(err)
	}
	models, err := ppdm.ModelsForAllAttrs(ppdm.BenchmarkSchema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbStream(src, models, 11, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := ppdm.NewStreamWriter(&buf, ppdm.BenchmarkSchema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppdm.CopyStream(w, perturbed); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// inMemoryCSV runs gen → perturb in memory and renders the table as CSV.
func inMemoryCSV(t *testing.T, n, workers int) []byte {
	t.Helper()
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: n, Seed: 7, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTableWorkers(tb, models, 11, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := ppdm.NewCSVWriter(&buf, perturbed.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppdm.CopyStream(w, ppdm.StreamTable(perturbed, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamPipelineGolden is the golden equivalence test: gunzipping the
// streamed gen→perturb output must reproduce the in-memory CSV byte for
// byte, for every (workers, batch) combination.
func TestStreamPipelineGolden(t *testing.T) {
	const n = 20000
	want := inMemoryCSV(t, n, 1)
	for _, workers := range []int{1, 8} {
		if got := inMemoryCSV(t, n, workers); !bytes.Equal(got, want) {
			t.Fatalf("in-memory CSV differs at Workers=%d", workers)
		}
		for _, batch := range []int{1000, 8192, n} {
			compressed := streamedPipeline(t, n, batch, workers)
			gz, err := gzip.NewReader(bytes.NewReader(compressed))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(gz)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("workers %d batch %d: streamed output differs from in-memory CSV", workers, batch)
			}
		}
	}
}

// TestStreamReconstructionGolden checks the third pipeline stage: sufficient
// statistics collected from the stream must reconstruct bit-identically to
// Reconstruct on the materialized column, at both worker counts.
func TestStreamReconstructionGolden(t *testing.T) {
	const n = 20000
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: n, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(tb, models, 11)
	if err != nil {
		t.Fatal(err)
	}
	ageIdx, ok := tb.Schema().AttrIndex("age")
	if !ok {
		t.Fatal("no age attribute")
	}
	part, err := ppdm.NewPartition(20, 80, 50)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 8} {
		want, err := ppdm.Reconstruct(perturbed.Column(ageIdx), ppdm.ReconstructConfig{
			Partition: part, Noise: models[ageIdx], Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}

		// Streaming path: gen → perturb → collect, no table materialized.
		src, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F2, N: n, Seed: 7, Workers: workers}, 3000)
		if err != nil {
			t.Fatal(err)
		}
		psrc, err := ppdm.PerturbStream(src, models, 11, workers)
		if err != nil {
			t.Fatal(err)
		}
		stats, err := ppdm.CollectStreamStats(psrc, map[int]ppdm.Partition{ageIdx: part}, models)
		if err != nil {
			t.Fatal(err)
		}
		got, err := stats.Collector(ageIdx).Reconstruct(ppdm.ReconstructConfig{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.P) != len(want.P) {
			t.Fatalf("workers %d: %d bins streamed, %d in memory", workers, len(got.P), len(want.P))
		}
		for b := range want.P {
			if got.P[b] != want.P[b] { // bitwise float equality, on purpose
				t.Fatalf("workers %d bin %d: streamed %v != in-memory %v", workers, b, got.P[b], want.P[b])
			}
		}
	}
}

// TestStreamTreeGolden checks out-of-core decision-tree training end to
// end: for every supported mode, the tree trained from the stream — spilled
// columnar attribute lists, reconstruction from re-read columns, growth
// through the bounded segment cache — must serialize byte-identically to
// the in-memory tree, at Workers 1 and 8, with identical render and
// Importance.
func TestStreamTreeGolden(t *testing.T) {
	const n = 10000
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F3, N: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(tb, models, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ppdm.Mode{ppdm.Randomized, ppdm.ByClass} {
		for _, workers := range []int{1, 8} {
			cfg := ppdm.TrainConfig{Mode: mode, Workers: workers}
			if mode.NeedsNoise() {
				cfg.Noise = models
			}
			// Tiny cutoff so Workers 8 genuinely forks subtrees.
			cfg.Tree.SubtreeMinRows = 128

			want, err := ppdm.Train(perturbed, cfg)
			if err != nil {
				t.Fatalf("mode %v workers %d: %v", mode, workers, err)
			}
			// Full streamed pass: gen → perturb → spill-train, no table
			// materialized on the streaming side.
			src, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F3, N: n, Seed: 5, Workers: workers}, 3000)
			if err != nil {
				t.Fatal(err)
			}
			psrc, err := ppdm.PerturbStream(src, models, 6, workers)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ppdm.TrainStream(psrc, cfg)
			if err != nil {
				t.Fatalf("mode %v workers %d: %v", mode, workers, err)
			}

			var wantDoc, gotDoc bytes.Buffer
			if err := want.Save(&wantDoc); err != nil {
				t.Fatal(err)
			}
			if err := got.Save(&gotDoc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantDoc.Bytes(), gotDoc.Bytes()) {
				t.Errorf("mode %v workers %d: streamed tree model differs from in-memory model", mode, workers)
			}
			if want.Tree.String() != got.Tree.String() {
				t.Errorf("mode %v workers %d: rendered trees differ", mode, workers)
			}
			for a := range want.Tree.Importance {
				if want.Tree.Importance[a] != got.Tree.Importance[a] { // bitwise, on purpose
					t.Errorf("mode %v workers %d: Importance[%d] differs", mode, workers, a)
				}
			}
			wantEv, err := want.Evaluate(tb)
			if err != nil {
				t.Fatal(err)
			}
			gotEv, err := got.Evaluate(tb)
			if err != nil {
				t.Fatal(err)
			}
			if wantEv.Accuracy != gotEv.Accuracy {
				t.Errorf("mode %v workers %d: accuracy %v != %v", mode, workers, gotEv.Accuracy, wantEv.Accuracy)
			}
		}
	}
}

// TestStreamNaiveBayesGolden checks streamed training end to end: the model
// trained from the stream must serialize identically to the in-memory one.
func TestStreamNaiveBayesGolden(t *testing.T) {
	const n = 10000
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F3, N: n, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(tb, models, 6)
	if err != nil {
		t.Fatal(err)
	}
	cfg := ppdm.NaiveBayesConfig{Mode: ppdm.ByClass, Noise: models}
	want, err := ppdm.TrainNaiveBayes(perturbed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	wantDoc, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		src, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F3, N: n, Seed: 5, Workers: workers}, 2048)
		if err != nil {
			t.Fatal(err)
		}
		psrc, err := ppdm.PerturbStream(src, models, 6, workers)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ppdm.TrainNaiveBayesStream(psrc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		gotDoc, err := json.Marshal(got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotDoc, wantDoc) {
			t.Errorf("workers %d: streamed naive Bayes model differs from in-memory model", workers)
		}
	}
}
