package bayes

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// stateFixture holds the wire states of one shard's statistics over a
// perturbed F2 sample: in ByClass with age left unreconstructed, so the
// state carries direct-binned histogram rows next to the collectors; the
// same ByClass shard accumulated on 5 intervals; and the shard in Original.
type stateFixture struct {
	schema              *dataset.Schema
	byClass, original   Config
	good, coarse, plain []byte
}

func newStateFixture(tb testing.TB) stateFixture {
	tb.Helper()
	clean, err := synth.Generate(synth.Config{Function: synth.F2, N: 2000, Seed: 3})
	if err != nil {
		tb.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		tb.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(clean, models, 4)
	if err != nil {
		tb.Fatal(err)
	}
	delete(models, synth.AttrAge)
	fx := stateFixture{
		schema:   perturbed.Schema(),
		byClass:  Config{Mode: core.ByClass, Noise: models},
		original: Config{Mode: core.Original},
	}
	state := func(cfg Config) []byte {
		st, err := NewTrainStats(fx.schema, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		b, err := stream.FromTable(perturbed, perturbed.N()).Next()
		if err != nil {
			tb.Fatal(err)
		}
		if err := st.AddBatch(b); err != nil {
			tb.Fatal(err)
		}
		doc, err := json.Marshal(st.State())
		if err != nil {
			tb.Fatal(err)
		}
		return doc
	}
	coarse := fx.byClass
	coarse.Intervals = 5
	fx.good, fx.coarse, fx.plain = state(fx.byClass), state(coarse), state(fx.original)
	return fx
}

// decodeState unmarshals a fresh copy of a wire state.
func decodeState(tb testing.TB, doc []byte) TrainStatsState {
	tb.Helper()
	var state TrainStatsState
	if err := json.Unmarshal(doc, &state); err != nil {
		tb.Fatal(err)
	}
	return state
}

// mismatches corrupt a valid ByClass state so that every collector is still
// well-formed on its own and only the state's agreement with the
// coordinator's partitions and with its own class counts is broken.
func (fx stateFixture) mismatches(tb testing.TB) []stateCorruption {
	coarse := decodeState(tb, fx.coarse)
	return []stateCorruption{
		// Accepted before, this state finalized salary on 5 intervals
		// against a 50-interval partition, and Predict then indexed past
		// the end of the 5-entry distribution.
		{"collectors on a foreign grid", func(state *TrainStatsState) {
			state.Recon.ByClass[synth.AttrSalary] = coarse.Recon.ByClass[synth.AttrSalary]
		}},
		{"class collector n not its class count", func(state *TrainStatsState) {
			from, to := &state.Recon.ByClass[synth.AttrSalary][0], &state.Recon.ByClass[synth.AttrSalary][1]
			for i, cnt := range from.Counts {
				if cnt > 0 {
					from.Counts[i]--
					from.N--
					to.Counts[i]++
					to.N++
					return
				}
			}
			tb.Fatal("class 0 has an empty salary collector")
		}},
		{"collector class counts not the state's", func(state *TrainStatsState) {
			state.Recon.ClassCounts[0]++
			state.Recon.ClassCounts[1]--
		}},
	}
}

// stateCorruption names one way to corrupt a wire state.
type stateCorruption struct {
	name    string
	corrupt func(state *TrainStatsState)
}

// TestTrainStatsStateRejectsBadCollectors feeds NewTrainStatsFromState a
// shard state corrupted in each way a remote worker could send it: collector
// counts of the wrong length, with a negative cell, or not summing to n;
// collectors on a grid other than the coordinator's, holding a count other
// than their class's, or beside class counts other than the state's;
// direct-binned histogram cells that are not counts or do not sum to their
// class count; and class counts that are negative, do not sum to N, or
// overflow their sum.
func TestTrainStatsStateRejectsBadCollectors(t *testing.T) {
	fx := newStateFixture(t)
	cfg := fx.byClass
	decode := func() TrainStatsState { return decodeState(t, fx.good) }
	if _, err := NewTrainStatsFromState(fx.schema, cfg, decode()); err != nil {
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
		if _, err := NewTrainStatsFromState(fx.schema, cfg, state); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
	for _, m := range fx.mismatches(t) {
		state := decode()
		m.corrupt(&state)
		if _, err := NewTrainStatsFromState(fx.schema, cfg, state); err == nil {
			t.Errorf("%s: corrupt state accepted", m.name)
		}
	}
	// Class counts whose sum overflows int, with N set to the wrapped sum
	// and every histogram row holding its class's count.
	state := decodeState(t, fx.plain)
	const half = 1 << 62
	state.ClassCounts = []int{half, half}
	state.N = state.ClassCounts[0] + state.ClassCounts[1]
	for c := range state.Hist {
		for _, row := range state.Hist[c] {
			clear(row)
			row[0] = half
		}
	}
	if _, err := NewTrainStatsFromState(fx.schema, fx.original, state); err == nil {
		t.Error("class counts whose sum overflows accepted")
	}
}

// FuzzTrainStatsState decodes arbitrary JSON as a shard worker's reply. A
// state NewTrainStatsFromState accepts, under the ByClass or the Original
// config, must Finalize without panicking into a model with Partitions[j].K
// entries in every Cond[c][j], and its State() must re-encode to a state
// that is accepted again and equal.
func FuzzTrainStatsState(f *testing.F) {
	fx := newStateFixture(f)
	f.Add(fx.good)
	f.Add(fx.plain)
	for _, m := range fx.mismatches(f) {
		state := decodeState(f, fx.good)
		m.corrupt(&state)
		doc, err := json.Marshal(state)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		var state TrainStatsState
		if json.Unmarshal(doc, &state) != nil {
			return
		}
		for _, cfg := range []Config{fx.byClass, fx.original} {
			st, err := NewTrainStatsFromState(fx.schema, cfg, state)
			if err != nil {
				continue
			}
			again := st.State()
			if clf, err := st.Finalize(); err == nil {
				for c := range clf.Cond {
					for j, dist := range clf.Cond[c] {
						if len(dist) != clf.Partitions[j].K {
							t.Fatalf("mode %v: Cond[%d][%d] has %d entries, partition has %d", cfg.Mode, c, j, len(dist), clf.Partitions[j].K)
						}
					}
				}
			}
			redoc, err := json.Marshal(again)
			if err != nil {
				t.Fatal(err)
			}
			back, err := NewTrainStatsFromState(fx.schema, cfg, decodeState(t, redoc))
			if err != nil {
				t.Fatalf("mode %v: re-encoded state rejected: %v", cfg.Mode, err)
			}
			if !reflect.DeepEqual(back.State(), again) {
				t.Fatalf("mode %v: re-encoded state reads back differently", cfg.Mode)
			}
		}
	})
}
