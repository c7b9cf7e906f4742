package bayes

import (
	"encoding/json"
	"testing"

	"ppdm/internal/core"
	"ppdm/internal/noise"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// TestTrainStatsStateRejectsBadCollectors feeds NewTrainStatsFromState a
// shard state whose collector counts are corrupt in each way a remote
// worker could send them: the wrong length, a negative cell, and cells
// that do not sum to n.
func TestTrainStatsStateRejectsBadCollectors(t *testing.T) {
	clean, err := synth.Generate(synth.Config{Function: synth.F2, N: 2000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(clean, models, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Mode: core.ByClass, Noise: models}
	st, err := NewTrainStats(perturbed.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	src := stream.FromTable(perturbed, perturbed.N())
	b, err := src.Next()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.AddBatch(b); err != nil {
		t.Fatal(err)
	}
	good, err := json.Marshal(st.State())
	if err != nil {
		t.Fatal(err)
	}
	decode := func() TrainStatsState {
		var state TrainStatsState
		if err := json.Unmarshal(good, &state); err != nil {
			t.Fatal(err)
		}
		return state
	}
	if _, err := NewTrainStatsFromState(perturbed.Schema(), cfg, decode()); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
	for name, corrupt := range map[string]func(counts *[]int, n *int){
		"one cell too many": func(counts *[]int, n *int) { *counts = append(*counts, 0) },
		"one cell too few":  func(counts *[]int, n *int) { *counts = (*counts)[1:] },
		"negative cell":     func(counts *[]int, n *int) { (*counts)[0] = -1; *n-- },
		"sum not n":         func(counts *[]int, n *int) { *n++ },
	} {
		state := decode()
		cs := &state.Recon.ByClass[synth.AttrSalary][1]
		corrupt(&cs.Counts, &cs.N)
		if _, err := NewTrainStatsFromState(perturbed.Schema(), cfg, state); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
}
