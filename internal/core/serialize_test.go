package core

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ppdm/internal/noise"
	"ppdm/internal/synth"
)

func trainSmallClassifier(t *testing.T) *Classifier {
	t.Helper()
	train, err := synth.Generate(synth.Config{Function: synth.F2, N: 3000, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	models, _ := noise.ModelsForAllAttrs(train.Schema(), "gaussian", 0.5, noise.DefaultConfidence)
	perturbed, _ := noise.PerturbTable(train, models, 82)
	clf, err := Train(perturbed, Config{Mode: ByClass, Noise: models})
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

func TestSaveLoadRoundTrip(t *testing.T) {
	clf := trainSmallClassifier(t)
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Mode != clf.Mode {
		t.Errorf("mode changed: %v != %v", loaded.Mode, clf.Mode)
	}
	if loaded.Tree.NodeCount() != clf.Tree.NodeCount() {
		t.Errorf("tree size changed: %d != %d", loaded.Tree.NodeCount(), clf.Tree.NodeCount())
	}
	// identical predictions on fresh data
	test, _ := synth.Generate(synth.Config{Function: synth.F2, N: 500, Seed: 83})
	for i := 0; i < test.N(); i++ {
		a, err := clf.Predict(test.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		b, err := loaded.Predict(test.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("prediction %d differs after round trip", i)
		}
	}
	// schema survives by value
	if loaded.Schema.NumAttrs() != clf.Schema.NumAttrs() {
		t.Error("schema attrs lost")
	}
	if _, ok := loaded.Schema.AttrIndex("age"); !ok {
		t.Error("attribute lookup broken after load")
	}
}

func TestSaveIncomplete(t *testing.T) {
	var buf bytes.Buffer
	var nilClf *Classifier
	if err := nilClf.Save(&buf); err == nil {
		t.Error("nil classifier saved")
	}
	if err := (&Classifier{}).Save(&buf); err == nil {
		t.Error("empty classifier saved")
	}
}

// garbageModels are model documents Load must reject.
var garbageModels = []struct{ name, doc string }{
	{"not json", "hello"},
	{"wrong format", `{"format":"other/9","mode":"byclass","attrs":[],"classes":[],"partitions":[],"tree":null}`},
	{"unknown field", `{"format":"ppdm-classifier/1","bogus":1}`},
	{"bad mode", `{"format":"ppdm-classifier/1","mode":"nope","attrs":[{"Name":"x","Kind":0,"Lo":0,"Hi":1,"Cardinality":0,"Step":0}],"classes":["a","b"],"partitions":[{"Lo":0,"Hi":1,"K":2}],"tree":null}`},
	{"no tree", `{"format":"ppdm-classifier/1","mode":"byclass","attrs":[{"Name":"x","Kind":0,"Lo":0,"Hi":1,"Cardinality":0,"Step":0}],"classes":["a","b"],"partitions":[{"Lo":0,"Hi":1,"K":2}],"tree":null}`},
}

func TestLoadRejectsGarbage(t *testing.T) {
	for _, c := range garbageModels {
		if _, err := Load(strings.NewReader(c.doc)); err == nil {
			t.Errorf("%s: Load succeeded", c.name)
		}
	}
}

func TestLoadRejectsCorruptedTree(t *testing.T) {
	clf := trainSmallClassifier(t)
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// sabotage: point a split at a non-existent attribute
	doc := buf.String()
	bad := strings.Replace(doc, `"Attr": 0`, `"Attr": 99`, 1)
	if bad == doc {
		t.Skip("no Attr field found to corrupt")
	}
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("corrupted tree loaded")
	}
}

func TestLoadRejectsPartitionMismatch(t *testing.T) {
	clf := trainSmallClassifier(t)
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// sabotage: shrink a partition below the tree's cuts
	bad := strings.Replace(buf.String(), `"K": 50`, `"K": 1`, 1)
	if _, err := Load(strings.NewReader(bad)); err == nil {
		t.Error("partition mismatch loaded")
	}
}

// FuzzLoadClassifier feeds Load arbitrary documents, seeded with a saved
// model, the same model with a split attribute or a partition corrupted, and
// the documents TestLoadRejectsGarbage rejects. Load must never panic, and a
// document it accepts must round-trip: Save → Load → Save reproduces the
// first Save byte for byte.
func FuzzLoadClassifier(f *testing.F) {
	// A few hundred records keep the seed model to a handful of nodes, so
	// the fuzzer mutates and minimizes a document of a few kilobytes.
	train, err := synth.Generate(synth.Config{Function: synth.F1, N: 400, Seed: 84})
	if err != nil {
		f.Fatal(err)
	}
	clf, err := Train(train, Config{Mode: Original})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := clf.Save(&buf); err != nil {
		f.Fatal(err)
	}
	saved := buf.String()
	f.Add([]byte(saved))
	// The root is the first node in the document, so this corrupts its split.
	f.Add([]byte(strings.Replace(saved, fmt.Sprintf(`"Attr": %d`, clf.Tree.Root.Attr), `"Attr": 99`, 1)))
	f.Add([]byte(strings.Replace(saved, `"K": 50`, `"K": 1`, 1)))
	for _, c := range garbageModels {
		f.Add([]byte(c.doc))
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
