package bayes

import (
	"bytes"
	"strings"
	"testing"

	"ppdm/internal/core"
	"ppdm/internal/noise"
	"ppdm/internal/synth"
)

// trainedNB trains a small ByClass naive-Bayes model over n perturbed
// benchmark records, with the given intervals per attribute (0 = the
// default), for the serialization tests.
func trainedNB(tb testing.TB, n, intervals int) *Classifier {
	tb.Helper()
	table, err := synth.Generate(synth.Config{Function: synth.F2, N: n, Seed: 11})
	if err != nil {
		tb.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(table.Schema(), "gaussian", 0.5, noise.DefaultConfidence)
	if err != nil {
		tb.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(table, models, 7)
	if err != nil {
		tb.Fatal(err)
	}
	clf, err := Train(perturbed, Config{Mode: core.ByClass, Noise: models, Intervals: intervals})
	if err != nil {
		tb.Fatal(err)
	}
	return clf
}

// TestSaveLoadRoundTrip asserts that a loaded model predicts identically to
// the model it was saved from, record for record.
func TestSaveLoadRoundTrip(t *testing.T) {
	clf := trainedNB(t, 3000, 0)
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if loaded.Mode != clf.Mode {
		t.Fatalf("mode round-trip: got %v, want %v", loaded.Mode, clf.Mode)
	}
	test, err := synth.Generate(synth.Config{Function: synth.F2, N: 2000, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < test.N(); i++ {
		want, err := clf.Predict(test.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		got, err := loaded.Predict(test.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("record %d: loaded model predicts %d, original predicts %d", i, got, want)
		}
	}
}

// TestLoadRejectsForeignFormats asserts the loader names the supported
// version when handed a document of another format — including a tree model.
func TestLoadRejectsForeignFormats(t *testing.T) {
	for _, doc := range []string{
		`{"format":"ppdm-classifier/1"}`,
		`{"format":"ppdm-nb/999"}`,
		`{"format":""}`,
	} {
		_, err := Load(strings.NewReader(doc))
		if err == nil {
			t.Fatalf("Load accepted document %s", doc)
		}
		if !strings.Contains(err.Error(), ModelFormat) {
			t.Fatalf("error for %s does not name the supported format: %v", doc, err)
		}
	}
}

// corruptModels returns the structurally corrupt variants of a saved
// ByClass model document that Load must reject, by name.
func corruptModels(good string) map[string]string {
	return map[string]string{
		"zero prior":       strings.Replace(good, `"priors": [`, `"priors": [0,`, 1),
		"negative cond":    strings.Replace(good, `"cond": [`, `"cond": [[[-1]],`, 1),
		"tree-only mode":   strings.Replace(good, `"mode": "byclass"`, `"mode": "local"`, 1),
		"unknown field":    strings.Replace(good, `"mode"`, `"extra": 1, "mode"`, 1),
		"truncated priors": strings.Replace(good, `"priors": [`, `"priors": [0.5],"was_priors": [`, 1),
	}
}

// savedNB returns the Save output of a model trained by trainedNB.
func savedNB(tb testing.TB, n, intervals int) string {
	tb.Helper()
	var buf bytes.Buffer
	if err := trainedNB(tb, n, intervals).Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.String()
}

// TestLoadRejectsCorruptModels spot-checks the structural validation.
func TestLoadRejectsCorruptModels(t *testing.T) {
	good := savedNB(t, 3000, 0)
	for name, bad := range corruptModels(good) {
		if bad == good {
			t.Fatalf("%s: mutation did not apply", name)
		}
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Errorf("%s: Load accepted a corrupt model", name)
		}
	}
}

// TestClassifyBatchMatchesPredict asserts the batched path returns exactly
// the per-record predictions at any worker count.
func TestClassifyBatchMatchesPredict(t *testing.T) {
	clf := trainedNB(t, 3000, 0)
	test, err := synth.Generate(synth.Config{Function: synth.F2, N: 500, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	records := make([][]float64, test.N())
	for i := range records {
		records[i] = test.Row(i)
	}
	for _, workers := range []int{1, 8} {
		got, err := clf.ClassifyBatch(records, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range records {
			want, _ := clf.Predict(rec)
			if got[i] != want {
				t.Fatalf("workers=%d record %d: batch predicts %d, Predict says %d", workers, i, got[i], want)
			}
		}
	}
}

// FuzzLoadNaiveBayes feeds Load arbitrary documents, seeded with a small
// saved model and its corruptModels variants, the kind
// TestLoadRejectsCorruptModels checks Load rejects. Load must never panic,
// and a document it accepts must round-trip: Save → Load → Save reproduces
// the first Save byte for byte.
func FuzzLoadNaiveBayes(f *testing.F) {
	// A few hundred records at four intervals per attribute keep the seed
	// document to a few kilobytes for the fuzzer to mutate and minimize.
	saved := savedNB(f, 400, 4)
	f.Add([]byte(saved))
	for _, bad := range corruptModels(saved) {
		f.Add([]byte(bad))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		clf, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		var first, second bytes.Buffer
		if err := clf.Save(&first); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		again, err := Load(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("saved model does not load again: %v", err)
		}
		if err := again.Save(&second); err != nil {
			t.Fatalf("reloaded model does not save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("Save -> Load -> Save changed the document:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
		}
	})
}
