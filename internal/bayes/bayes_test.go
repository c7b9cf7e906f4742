package bayes

import (
	"math"
	"testing"

	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/prng"
	"ppdm/internal/synth"
)

func TestTrainValidation(t *testing.T) {
	tb, _ := synth.Generate(synth.Config{Function: synth.F1, N: 100, Seed: 1})
	if _, err := Train(nil, Config{Mode: core.Original}); err == nil {
		t.Error("nil table accepted")
	}
	if _, err := Train(tb, Config{Mode: core.Global}); err == nil {
		t.Error("Global mode accepted")
	}
	if _, err := Train(tb, Config{Mode: core.Local}); err == nil {
		t.Error("Local mode accepted")
	}
	if _, err := Train(tb, Config{Mode: core.ByClass}); err == nil {
		t.Error("ByClass without noise accepted")
	}
	if _, err := Train(tb, Config{Mode: core.Original, Intervals: 1}); err == nil {
		t.Error("1 interval accepted")
	}
}

func TestModelIsProperDistribution(t *testing.T) {
	tb, _ := synth.Generate(synth.Config{Function: synth.F2, N: 2000, Seed: 2})
	clf, err := Train(tb, Config{Mode: core.Original})
	if err != nil {
		t.Fatal(err)
	}
	var priorSum float64
	for _, p := range clf.Priors {
		if p <= 0 || p >= 1 {
			t.Fatalf("prior %v out of (0,1)", p)
		}
		priorSum += p
	}
	if math.Abs(priorSum-1) > 1e-9 {
		t.Fatalf("priors sum to %v", priorSum)
	}
	for c := range clf.Cond {
		for j := range clf.Cond[c] {
			var sum float64
			for _, p := range clf.Cond[c][j] {
				if p <= 0 {
					t.Fatalf("zero/negative conditional at class %d attr %d", c, j)
				}
				sum += p
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("class %d attr %d conditionals sum to %v", c, j, sum)
			}
		}
	}
}

func TestOriginalModeLearnsF1(t *testing.T) {
	// F1 depends only on age, which naive Bayes handles perfectly.
	train, _ := synth.Generate(synth.Config{Function: synth.F1, N: 20000, Seed: 3})
	test, _ := synth.Generate(synth.Config{Function: synth.F1, N: 3000, Seed: 4})
	clf, err := Train(train, Config{Mode: core.Original})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.95 {
		t.Errorf("NB Original on F1 = %v, want > 0.95", ev.Accuracy)
	}
}

func TestByClassBeatsRandomizedOnF1(t *testing.T) {
	const privacy = 1.0
	train, _ := synth.Generate(synth.Config{Function: synth.F1, N: 20000, Seed: 5})
	test, _ := synth.Generate(synth.Config{Function: synth.F1, N: 3000, Seed: 6})
	models, _ := noise.ModelsForAllAttrs(train.Schema(), "gaussian", privacy, noise.DefaultConfidence)
	perturbed, _ := noise.PerturbTable(train, models, 7)

	rand, err := Train(perturbed, Config{Mode: core.Randomized})
	if err != nil {
		t.Fatal(err)
	}
	bc, err := Train(perturbed, Config{Mode: core.ByClass, Noise: models})
	if err != nil {
		t.Fatal(err)
	}
	evR, _ := rand.Evaluate(test)
	evB, _ := bc.Evaluate(test)
	t.Logf("randomized=%.3f byclass=%.3f", evR.Accuracy, evB.Accuracy)
	if evB.Accuracy < evR.Accuracy+0.05 {
		t.Errorf("NB ByClass (%v) should clearly beat Randomized (%v) on F1", evB.Accuracy, evR.Accuracy)
	}
	if evB.Accuracy < 0.9 {
		t.Errorf("NB ByClass on F1 = %v, want > 0.9", evB.Accuracy)
	}
}

func TestPredictValidation(t *testing.T) {
	tb, _ := synth.Generate(synth.Config{Function: synth.F1, N: 200, Seed: 8})
	clf, err := Train(tb, Config{Mode: core.Original})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clf.Predict([]float64{1}); err == nil {
		t.Error("short record accepted")
	}
	if _, err := clf.Evaluate(nil); err == nil {
		t.Error("nil test accepted")
	}
}

func TestKnownPosterior(t *testing.T) {
	// Hand-checkable model: one binary-ish attribute, two classes.
	schema := dataset.MustSchema(
		[]dataset.Attribute{dataset.NumericAttr("x", 0, 1)},
		[]string{"neg", "pos"},
	)
	tb := dataset.NewTable(schema)
	// class neg concentrated low, pos concentrated high
	r := prng.New(9)
	for i := 0; i < 1000; i++ {
		if r.Bernoulli(0.5) {
			_ = tb.Append([]float64{r.Uniform(0, 0.4)}, 0)
		} else {
			_ = tb.Append([]float64{r.Uniform(0.6, 1)}, 1)
		}
	}
	clf, err := Train(tb, Config{Mode: core.Original, Intervals: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := clf.Predict([]float64{0.1}); got != 0 {
		t.Errorf("Predict(0.1) = %d, want 0", got)
	}
	if got, _ := clf.Predict([]float64{0.9}); got != 1 {
		t.Errorf("Predict(0.9) = %d, want 1", got)
	}
}

func TestSmoothingHandlesUnseenBins(t *testing.T) {
	// Every training value sits in one bin; prediction from another bin
	// must still work (smoothing prevents log(0)).
	schema := dataset.MustSchema(
		[]dataset.Attribute{dataset.NumericAttr("x", 0, 10)},
		[]string{"a", "b"},
	)
	tb := dataset.NewTable(schema)
	for i := 0; i < 50; i++ {
		_ = tb.Append([]float64{1}, i%2)
	}
	clf, err := Train(tb, Config{Mode: core.Original, Intervals: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := clf.Predict([]float64{9})
	if err != nil || got < 0 || got > 1 {
		t.Fatalf("Predict on unseen bin = %d, %v", got, err)
	}
}
