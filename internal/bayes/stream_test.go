package bayes

import (
	"io"
	"reflect"
	"testing"

	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// referenceTrain is the test oracle for naïve-Bayes training: it bins each
// class's column of the materialized table directly, or reconstructs it
// from the raw perturbed values for ByClass, with no streamed statistics.
func referenceTrain(train *dataset.Table, cfg Config) (*Classifier, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	s := train.Schema()
	parts, err := partitions(s, cfg.Intervals)
	if err != nil {
		return nil, err
	}
	k := s.NumClasses()
	clf := &Classifier{
		Mode:       cfg.Mode,
		Schema:     s,
		Priors:     make([]float64, k),
		Cond:       make([][][]float64, k),
		Partitions: parts,
	}
	counts := train.ClassCounts()
	for c := 0; c < k; c++ {
		clf.Priors[c] = (float64(counts[c]) + DefaultSmoothing) / (float64(train.N()) + DefaultSmoothing*float64(k))
		clf.Cond[c] = make([][]float64, s.NumAttrs())
	}
	for j := 0; j < s.NumAttrs(); j++ {
		model, perturbed := cfg.Noise[j]
		useRecon := cfg.Mode == core.ByClass && perturbed
		for c := 0; c < k; c++ {
			values, _ := train.ColumnForClass(j, c)
			if useRecon && len(values) > 0 {
				res, err := reconstruct.Reconstruct(values, reconstruct.Config{
					Partition: parts[j],
					Noise:     model,
					Algorithm: cfg.ReconAlgorithm,
					Epsilon:   core.DefaultReconEpsilon,
				})
				if err != nil {
					return nil, err
				}
				clf.Cond[c][j] = smooth(res.P, float64(len(values)))
				continue
			}
			bins := make([]float64, parts[j].K)
			for _, v := range values {
				bins[parts[j].Bin(v)]++
			}
			clf.Cond[c][j] = distFromCounts(bins, float64(len(values)))
		}
	}
	return clf, nil
}

// Train and TrainStream must produce a classifier identical to the
// reference oracle on the materialized table, in every supported mode, at
// any batch size.
func TestTrainStreamMatchesReference(t *testing.T) {
	clean, err := synth.Generate(synth.Config{Function: synth.F3, N: 6000, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(clean, models, 14)
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []core.Mode{core.Original, core.Randomized, core.ByClass} {
		input := perturbed
		cfg := Config{Mode: mode}
		if mode == core.Original {
			input = clean
		}
		if mode.NeedsNoise() {
			cfg.Noise = models
		}
		want, err := referenceTrain(input, cfg)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		for _, batch := range []int{0, 512, 1024, 6000} {
			var got *Classifier
			if batch == 0 { // Train itself, at the stream's default batch size
				got, err = Train(input, cfg)
			} else {
				got, err = TrainStream(stream.FromTable(input, batch), cfg)
			}
			if err != nil {
				t.Fatalf("mode %v batch %d: %v", mode, batch, err)
			}
			if !reflect.DeepEqual(got.Priors, want.Priors) {
				t.Fatalf("mode %v batch %d: priors differ: %v vs %v", mode, batch, got.Priors, want.Priors)
			}
			if !reflect.DeepEqual(got.Cond, want.Cond) {
				t.Fatalf("mode %v batch %d: conditional distributions differ", mode, batch)
			}
			if !reflect.DeepEqual(got.Partitions, want.Partitions) {
				t.Fatalf("mode %v batch %d: partitions differ", mode, batch)
			}
		}
	}
}

// EvaluateStream must agree with Evaluate on the same test set.
func TestEvaluateStreamMatchesEvaluate(t *testing.T) {
	train, err := synth.Generate(synth.Config{Function: synth.F2, N: 4000, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	test, err := synth.Generate(synth.Config{Function: synth.F2, N: 1000, Seed: 22})
	if err != nil {
		t.Fatal(err)
	}
	clf, err := Train(train, Config{Mode: core.Original})
	if err != nil {
		t.Fatal(err)
	}
	want, err := clf.Evaluate(test)
	if err != nil {
		t.Fatal(err)
	}
	got, err := clf.EvaluateStream(stream.FromTable(test, 300))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("streamed evaluation differs:\n%+v\nvs\n%+v", got, want)
	}
}

func TestTrainStreamValidation(t *testing.T) {
	train, err := synth.Generate(synth.Config{Function: synth.F1, N: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TrainStream(stream.FromTable(train, 0), Config{Mode: core.Local}); err == nil {
		t.Error("unsupported mode accepted")
	}
	if _, err := TrainStream(stream.FromTable(train, 0), Config{Mode: core.ByClass}); err == nil {
		t.Error("ByClass without noise models accepted")
	}
	empty := &emptySource{schema: train.Schema()}
	if _, err := TrainStream(empty, Config{Mode: core.Original}); err == nil {
		t.Error("empty stream accepted")
	}
}

type emptySource struct{ schema *dataset.Schema }

func (s *emptySource) Schema() *dataset.Schema      { return s.schema }
func (s *emptySource) Next() (*stream.Batch, error) { return nil, io.EOF }
