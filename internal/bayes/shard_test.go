package bayes

import (
	"encoding/json"
	"math"
	"testing"

	"ppdm/internal/core"
	"ppdm/internal/noise"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// TestTrainStatsStateRejectsBadCollectors feeds NewTrainStatsFromState a
// shard state corrupted in each way a remote worker could send it: collector
// counts of the wrong length, with a negative cell, or not summing to n;
// direct-binned histogram cells that are not counts or do not sum to their
// class count; and class counts that are negative or do not sum to N.
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
	// Age stays unreconstructed, so the state carries direct-binned
	// histogram rows next to the collectors.
	delete(models, synth.AttrAge)
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
	// ageRow returns class 1's age histogram row and the index of a cell
	// holding at least one count.
	ageRow := func(state *TrainStatsState) ([]float64, int) {
		row := state.Hist[1][synth.AttrAge]
		for b, v := range row {
			if v >= 1 {
				return row, b
			}
		}
		t.Fatal("class 1 has an empty age histogram")
		return nil, 0
	}
	for name, corrupt := range map[string]func(state *TrainStatsState){
		"collector one cell too many": func(state *TrainStatsState) {
			cs := &state.Recon.ByClass[synth.AttrSalary][1]
			cs.Counts = append(cs.Counts, 0)
		},
		"collector one cell too few": func(state *TrainStatsState) {
			cs := &state.Recon.ByClass[synth.AttrSalary][1]
			cs.Counts = cs.Counts[1:]
		},
		"collector negative cell": func(state *TrainStatsState) {
			cs := &state.Recon.ByClass[synth.AttrSalary][1]
			cs.Counts[0] = -1
			cs.N--
		},
		"collector sum not n": func(state *TrainStatsState) { state.Recon.ByClass[synth.AttrSalary][1].N++ },
		"hist NaN cell":       func(state *TrainStatsState) { row, b := ageRow(state); row[b] = math.NaN() },
		"hist +Inf cell":      func(state *TrainStatsState) { row, b := ageRow(state); row[b] = math.Inf(1) },
		"hist -Inf cell":      func(state *TrainStatsState) { row, b := ageRow(state); row[b] = math.Inf(-1) },
		"hist negative cell": func(state *TrainStatsState) {
			row, b := ageRow(state)
			other := (b + 1) % len(row)
			row[other] += row[b] + 1
			row[b] = -1
		},
		"hist non-integral cell": func(state *TrainStatsState) {
			row, b := ageRow(state)
			row[(b+1)%len(row)] += 0.5
			row[b] -= 0.5
		},
		"hist row sum not class count": func(state *TrainStatsState) { row, b := ageRow(state); row[b]++ },
		"negative class count": func(state *TrainStatsState) {
			state.N -= state.ClassCounts[0] + 1
			state.ClassCounts[0] = -1
		},
		"n not the class count sum": func(state *TrainStatsState) { state.N++ },
	} {
		state := decode()
		corrupt(&state)
		if _, err := NewTrainStatsFromState(perturbed.Schema(), cfg, state); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
}
