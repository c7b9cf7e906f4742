package ppdm_test

// The engine's determinism contract — results are a pure function of seed
// and inputs, never of worker count — verified end to end through the public
// facade: perturbation, training in all five modes, and a full experiment
// run must produce byte-identical artifacts at Workers: 1 and Workers: 8.

import (
	"bytes"
	"testing"

	"ppdm"
	"ppdm/internal/eval"
)

func detData(t *testing.T, n int, seed uint64, workers int) *ppdm.Table {
	t.Helper()
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F3, N: n, Seed: seed, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func tablesEqual(t *testing.T, a, b *ppdm.Table) bool {
	t.Helper()
	if a.N() != b.N() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		if a.Label(i) != b.Label(i) {
			return false
		}
		ra, rb := a.Row(i), b.Row(i)
		for j := range ra {
			if ra[j] != rb[j] { // bitwise float equality, on purpose
				return false
			}
		}
	}
	return true
}

func TestGenerateWorkerDeterminism(t *testing.T) {
	serial := detData(t, 10000, 7, 1)
	parallelGen := detData(t, 10000, 7, 8)
	if !tablesEqual(t, serial, parallelGen) {
		t.Fatal("Generate output differs between Workers=1 and Workers=8")
	}
}

func TestPerturbTableWorkerDeterminism(t *testing.T) {
	tb := detData(t, 10000, 7, 4)
	for _, family := range []string{"uniform", "gaussian", "laplace"} {
		models, err := ppdm.ModelsForAllAttrs(tb.Schema(), family, 1.0, ppdm.DefaultConfidence)
		if err != nil {
			t.Fatal(err)
		}
		serial, err := ppdm.PerturbTableWorkers(tb, models, 11, 1)
		if err != nil {
			t.Fatal(err)
		}
		par, err := ppdm.PerturbTableWorkers(tb, models, 11, 8)
		if err != nil {
			t.Fatal(err)
		}
		if !tablesEqual(t, serial, par) {
			t.Fatalf("%s: PerturbTable output differs between Workers=1 and Workers=8", family)
		}
	}
}

// TestTrainWorkerDeterminism trains every mode at Workers 1 and 8 and
// compares the serialized classifiers byte for byte (the JSON document
// contains the full tree, including all counts).
func TestTrainWorkerDeterminism(t *testing.T) {
	clean := detData(t, 8000, 7, 4)
	models, err := ppdm.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(clean, models, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []ppdm.Mode{ppdm.Original, ppdm.Randomized, ppdm.Global, ppdm.ByClass, ppdm.Local} {
		input := perturbed
		if mode == ppdm.Original {
			input = clean
		}
		var docs [2]bytes.Buffer
		for i, workers := range []int{1, 8} {
			cfg := ppdm.TrainConfig{Mode: mode, Workers: workers, LocalMinRecords: 500}
			if mode.NeedsNoise() {
				cfg.Noise = models
			}
			clf, err := ppdm.Train(input, cfg)
			if err != nil {
				t.Fatalf("mode %v workers %d: %v", mode, workers, err)
			}
			if err := clf.Save(&docs[i]); err != nil {
				t.Fatalf("mode %v workers %d: %v", mode, workers, err)
			}
		}
		if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
			t.Errorf("mode %v: trained model differs between Workers=1 and Workers=8", mode)
		}
	}
}

// TestSubtreeParallelWorkerDeterminism drives the fork-join subtree growth
// hard — a cutoff small enough that forking reaches deep into the tree —
// and demands byte-identical serialized classifiers at Workers 1 and 8,
// with and without pruning.
func TestSubtreeParallelWorkerDeterminism(t *testing.T) {
	clean := detData(t, 20000, 17, 4)
	models, err := ppdm.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(clean, models, 19)
	if err != nil {
		t.Fatal(err)
	}
	for _, disablePruning := range []bool{false, true} {
		var docs [2]bytes.Buffer
		for i, workers := range []int{1, 8} {
			cfg := ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models, Workers: workers}
			cfg.Tree.SubtreeMinRows = 64
			cfg.Tree.DisablePruning = disablePruning
			clf, err := ppdm.Train(perturbed, cfg)
			if err != nil {
				t.Fatalf("workers %d: %v", workers, err)
			}
			if err := clf.Save(&docs[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(docs[0].Bytes(), docs[1].Bytes()) {
			t.Errorf("pruning disabled=%v: subtree-parallel tree differs between Workers=1 and Workers=8", disablePruning)
		}
	}
}

// TestEvalWorkerDeterminism runs the full committed scenario matrix at
// Workers 1 and 8: the deterministic report rendering (timings stripped)
// must match byte for byte, extending the contract to the eval harness
// itself.
func TestEvalWorkerDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full scenario matrix in -short mode")
	}
	specs, err := eval.LoadDir("eval/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	var outs [2]bytes.Buffer
	for i, workers := range []int{1, 8} {
		rep, err := eval.Run(specs, eval.Config{Scale: 0.05, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		for _, res := range rep.Results {
			if res.Err != "" {
				t.Fatalf("workers %d: scenario %s: %s", workers, res.Name, res.Err)
			}
		}
		if err := rep.JSON(&outs[i], false); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(outs[0].Bytes(), outs[1].Bytes()) {
		t.Error("eval report differs between Workers=1 and Workers=8")
	}
}

// TestReconstructWorkerDeterminism checks the facade end to end; note the
// second run may hit the shared transition-matrix cache, so the parallel
// precompute itself is additionally exercised cache-cold by
// internal/reconstruct's TestWeightWorkerDeterminism.
func TestReconstructWorkerDeterminism(t *testing.T) {
	tb := detData(t, 20000, 3, 4)
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(tb, models, 5)
	if err != nil {
		t.Fatal(err)
	}
	ageIdx, _ := tb.Schema().AttrIndex("age")
	part, err := ppdm.NewPartition(20, 80, 50)
	if err != nil {
		t.Fatal(err)
	}
	col := perturbed.Column(ageIdx)
	var ps [2][]float64
	for i, workers := range []int{1, 8} {
		res, err := ppdm.Reconstruct(col, ppdm.ReconstructConfig{
			Partition: part, Noise: models[ageIdx], Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		ps[i] = res.P
	}
	for b := range ps[0] {
		if ps[0][b] != ps[1][b] {
			t.Fatalf("bin %d: reconstruction differs between Workers=1 and Workers=8", b)
		}
	}
}
