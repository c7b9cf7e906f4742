package ppdm_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"ppdm"
	"ppdm/internal/cluster"
	"ppdm/internal/stream"
)

// modelDigest is the hex SHA-256 of a model's saved bytes.
func modelDigest(t *testing.T, save func(*bytes.Buffer) error) string {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestModelDigests pins the exact bytes every training path saves for one
// fixed table: a 20,000-record F2 draw, perturbed with gaussian noise at
// 100% privacy. In-memory training is pinned per mode at Workers 1 and 4;
// streamed training (TrainStream) and sharded training (cluster.TrainTree at
// 3 shards, so every shard holds a deal unit) must save the in-memory
// digest of their mode; naive Bayes is pinned in ByClass. The table spans
// three tree.SegLen units and Local re-reconstructs at its nodes, so every
// path's defaults, constants and merge order reach the digests.
func TestModelDigests(t *testing.T) {
	want := map[string]string{
		"original":   "a9027bfe3707d4379852f1902e7351196ffb05eef8aedbd7a377841b22c9a6a2",
		"randomized": "8bc2fe2f5583a52eb0db3fa82fb66e720afeb2fc060be2de2adbac0b9ec98331",
		"global":     "0a594215ba43ee94c717ab969571abc091cd2df5662460b1732d443f9d1c8b7b",
		"byclass":    "693226c43efb06b070d4c157e8944e81620389fac248e5ee71f2f4361a6d9c29",
		"local":      "c217dc8462d70d5e1974bcdfdd8ac1c4fcf76fe27a013190c5cf4df230eb4b83",
		"nb-byclass": "d58e0b1556d4ae4137b01eb7145f56006290501b416c97db331bdc42ea7cc3d7",
	}
	const n = 20000
	clean, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: n, Seed: 71})
	if err != nil {
		t.Fatal(err)
	}
	models, err := ppdm.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(clean, models, 72)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name, key, got string) {
		t.Helper()
		if got != want[key] {
			t.Errorf("%s: model digest %s, want %s", name, got, want[key])
		}
	}

	for _, mode := range []ppdm.Mode{ppdm.Original, ppdm.Randomized, ppdm.Global, ppdm.ByClass, ppdm.Local} {
		for _, workers := range []int{1, 4} {
			cfg := ppdm.TrainConfig{Mode: mode, Workers: workers}
			table := clean
			if mode != ppdm.Original {
				table = perturbed
			}
			if mode.NeedsNoise() {
				cfg.Noise = models
			}
			clf, err := ppdm.Train(table, cfg)
			if err != nil {
				t.Fatalf("%v workers %d: %v", mode, workers, err)
			}
			check(fmt.Sprintf("Train %v workers %d", mode, workers), mode.String(),
				modelDigest(t, func(b *bytes.Buffer) error { return clf.Save(b) }))
		}
	}

	for _, mode := range []ppdm.Mode{ppdm.Global, ppdm.ByClass} {
		cfg := ppdm.TrainConfig{Mode: mode, Noise: models}
		streamed, err := ppdm.TrainStream(ppdm.StreamTable(perturbed, 0), cfg)
		if err != nil {
			t.Fatalf("TrainStream %v: %v", mode, err)
		}
		check(fmt.Sprintf("TrainStream %v", mode), mode.String(),
			modelDigest(t, func(b *bytes.Buffer) error { return streamed.Save(b) }))
		sharded, err := cluster.TrainTree(stream.FromTable(perturbed, 0), cfg, cluster.Options{Shards: 3})
		if err != nil {
			t.Fatalf("cluster.TrainTree %v: %v", mode, err)
		}
		check(fmt.Sprintf("cluster.TrainTree %v at 3 shards", mode), mode.String(),
			modelDigest(t, func(b *bytes.Buffer) error { return sharded.Save(b) }))
	}

	nb, err := ppdm.TrainNaiveBayes(perturbed, ppdm.NaiveBayesConfig{Mode: ppdm.ByClass, Noise: models})
	if err != nil {
		t.Fatal(err)
	}
	check("bayes.Train ByClass", "nb-byclass", modelDigest(t, func(b *bytes.Buffer) error { return nb.Save(b) }))
}
