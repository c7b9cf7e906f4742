package ppdm_test

import (
	"bytes"
	"testing"

	"ppdm"
)

// TestPublicPipeline exercises the whole library through the public facade
// only: generate → perturb → reconstruct → train → evaluate.
func TestPublicPipeline(t *testing.T) {
	train, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: 8000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	test, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: 1500, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	models, err := ppdm.ModelsForAllAttrs(train.Schema(), "gaussian", 0.5, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(train, models, 3)
	if err != nil {
		t.Fatal(err)
	}

	// reconstruction of one attribute's distribution
	ageIdx, ok := train.Schema().AttrIndex("age")
	if !ok {
		t.Fatal("no age attribute")
	}
	part, err := ppdm.NewPartition(20, 80, 20)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ppdm.Reconstruct(perturbed.Column(ageIdx), ppdm.ReconstructConfig{
		Partition: part, Noise: models[ageIdx],
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range res.P {
		if p < 0 {
			t.Fatal("negative reconstructed probability")
		}
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("reconstruction sums to %v", sum)
	}

	clf, err := ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.8 {
		t.Errorf("public-API ByClass accuracy = %v, want > 0.8 at 50%% privacy", ev.Accuracy)
	}
}

func TestPublicPrivacyMetrics(t *testing.T) {
	g, err := ppdm.GaussianForPrivacy(1.0, 100, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	lvl, err := ppdm.IntervalPrivacy(g, 100, ppdm.DefaultConfidence)
	if err != nil || lvl < 0.999 || lvl > 1.001 {
		t.Fatalf("IntervalPrivacy = %v, %v", lvl, err)
	}
	ep, err := ppdm.EntropyPrivacy([]float64{0.25, 0.25, 0.25, 0.25}, 25)
	if err != nil || ep < 99 || ep > 101 {
		t.Fatalf("EntropyPrivacy = %v, %v", ep, err)
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F1, N: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := ppdm.NewCSVWriter(&buf, tb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ppdm.CopyStream(w, ppdm.StreamTable(tb, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ppdm.ReadCSV(&buf, ppdm.BenchmarkSchema())
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != 20 {
		t.Fatalf("round trip N = %d", back.N())
	}
}

func TestPublicCustomSchema(t *testing.T) {
	schema, err := ppdm.NewSchema(
		[]ppdm.Attribute{
			ppdm.NumericAttr("income", 0, 200000),
			ppdm.IntegerAttr("visits", 0, 50),
		},
		[]string{"low", "high"},
	)
	if err != nil {
		t.Fatal(err)
	}
	tb := ppdm.NewTable(schema)
	r := ppdm.NewRand(7)
	for i := 0; i < 3000; i++ {
		income := r.Uniform(0, 200000)
		visits := float64(r.Intn(51))
		label := 0
		if income > 100000 {
			label = 1
		}
		if err := tb.Append([]float64{income, visits}, label); err != nil {
			t.Fatal(err)
		}
	}
	models, err := ppdm.ModelsForAllAttrs(schema, "uniform", 0.5, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(tb, models, 8)
	if err != nil {
		t.Fatal(err)
	}
	clf, err := ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := clf.Evaluate(tb)
	if err != nil {
		t.Fatal(err)
	}
	if ev.Accuracy < 0.85 {
		t.Errorf("custom-schema accuracy = %v, want > 0.85", ev.Accuracy)
	}
}

// TestOutlierRecordTrains appends one record with salary 1e17 to 1,999
// perturbed F2 records. The value lies far beyond the noise band, so every
// training path counts it in its grid's end cell instead of sizing a grid
// from it.
func TestOutlierRecordTrains(t *testing.T) {
	clean, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: 2000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	models, err := ppdm.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	train, err := ppdm.PerturbTable(clean, models, 2)
	if err != nil {
		t.Fatal(err)
	}
	salaryIdx, ok := train.Schema().AttrIndex("salary")
	if !ok {
		t.Fatal("no salary attribute")
	}
	train.SetValue(train.N()-1, salaryIdx, 1e17)

	cfg := ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models, SpillDir: t.TempDir()}
	if _, err := ppdm.Train(train, cfg); err != nil {
		t.Errorf("Train: %v", err)
	}
	if _, err := ppdm.TrainStream(ppdm.StreamTable(train, 0), cfg); err != nil {
		t.Errorf("TrainStream: %v", err)
	}
	nbCfg := ppdm.NaiveBayesConfig{Mode: ppdm.ByClass, Noise: models}
	if _, err := ppdm.TrainNaiveBayesStream(ppdm.StreamTable(train, 0), nbCfg); err != nil {
		t.Errorf("TrainNaiveBayesStream: %v", err)
	}
}
