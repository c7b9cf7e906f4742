package bayes

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"runtime"
	"slices"
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

// fanOutCase is one training configuration over a perturbed F2 sample.
type fanOutCase struct {
	name string
	data *dataset.Table
	cfg  Config
}

// fanOutCases trains in ByClass with noise on every attribute, in
// Randomized (direct cells only) and in ByClass with noise on three
// attributes (collectors beside direct cells).
func fanOutCases(tb testing.TB) []fanOutCase {
	tb.Helper()
	clean, err := synth.Generate(synth.Config{Function: synth.F2, N: 9000, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		tb.Fatal(err)
	}
	subset := map[int]noise.Model{
		synth.AttrSalary: models[synth.AttrSalary],
		synth.AttrAge:    models[synth.AttrAge],
		synth.AttrLoan:   models[synth.AttrLoan],
	}
	all, err := noise.PerturbTable(clean, models, 6)
	if err != nil {
		tb.Fatal(err)
	}
	some, err := noise.PerturbTable(clean, subset, 6)
	if err != nil {
		tb.Fatal(err)
	}
	return []fanOutCase{
		{"byclass-all", all, Config{Mode: core.ByClass, Noise: models}},
		{"randomized", all, Config{Mode: core.Randomized}},
		{"byclass-subset", some, Config{Mode: core.ByClass, Noise: subset}},
	}
}

// AddBatch bins the reconstructed attributes one task per attribute, and
// Finalize builds every cell as a task of its own, at GOMAXPROCS workers.
// At GOMAXPROCS 1 and 8 and at every batch size, TrainStream must save the
// same bytes, and after every batch the direct cells and class counts must
// hold what adding the records one at a time gives. (The collectors are
// checked the same way in internal/reconstruct.)
func TestTrainStreamFanOutDeterminism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range fanOutCases(t) {
		var want []byte
		for _, procs := range []int{1, 8} {
			runtime.GOMAXPROCS(procs)
			for _, batch := range []int{1, 7, 1000, 8192} {
				clf, err := TrainStream(stream.FromTable(tc.data, batch), tc.cfg)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				var buf bytes.Buffer
				if err := clf.Save(&buf); err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = buf.Bytes()
				} else if !bytes.Equal(buf.Bytes(), want) {
					t.Fatalf("%s: GOMAXPROCS %d, batch %d saves different bytes", tc.name, procs, batch)
				}
				checkPerBatch(t, tc.name, tc.data, tc.cfg, procs, batch)
			}
		}
	}
}

// checkPerBatch adds the table batch by batch and, after every batch,
// compares the direct cells, the class counts and the collectors' record
// counts with a per-record oracle.
func checkPerBatch(t *testing.T, name string, data *dataset.Table, cfg Config, procs, batch int) {
	t.Helper()
	st, err := NewTrainStats(data.Schema(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := data.Schema().NumClasses()
	hist := make([][][]float64, k)
	for c := range hist {
		hist[c] = make([][]float64, len(st.parts))
		for j, recon := range st.useRecon {
			if !recon {
				hist[c][j] = make([]float64, st.parts[j].K)
			}
		}
	}
	counts := make([]int, k)
	src := stream.FromTable(data, batch)
	for {
		b, err := src.Next()
		if err == io.EOF {
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		for i, label := range b.Labels {
			counts[label]++
			for j, recon := range st.useRecon {
				if !recon {
					hist[label][j][st.parts[j].Bin(b.Row(i)[j])]++
				}
			}
		}
		at := b.Start + b.N()
		if st.n != at || !slices.Equal(st.classCounts, counts) {
			t.Fatalf("%s: GOMAXPROCS %d, batch %d: %d records in classes %v after record %d, want %v",
				name, procs, batch, st.n, st.classCounts, at, counts)
		}
		for c := range hist {
			for j, recon := range st.useRecon {
				if !recon && !slices.Equal(st.hist[c][j], hist[c][j]) {
					t.Fatalf("%s: GOMAXPROCS %d, batch %d: class %d attribute %d cells differ after record %d",
						name, procs, batch, c, j, at)
				}
				if recon && st.stats.ClassCollector(j, c).N() != counts[c] {
					t.Fatalf("%s: GOMAXPROCS %d, batch %d: class %d collector of attribute %d holds %d records after record %d, want %d",
						name, procs, batch, c, j, st.stats.ClassCollector(j, c).N(), at, counts[c])
				}
			}
		}
	}
}

// A batch with a non-finite value or an out-of-range label fails before
// any attribute is binned, with CheckBatch's error text, and leaves the
// statistics empty; the batch is large enough to fan out.
func TestAddBatchRejectsBadBatch(t *testing.T) {
	for _, tc := range fanOutCases(t) {
		bad := []struct {
			corrupt func(*stream.Batch)
			want    string
		}{
			{func(b *stream.Batch) { b.Row(5000)[synth.AttrCommission] = math.NaN() },
				`stream: record 5000 attribute "commission" has non-finite value NaN`},
			{func(b *stream.Batch) { b.Row(8999)[synth.AttrLoan] = math.Inf(-1) },
				`stream: record 8999 attribute "loan" has non-finite value -Inf`},
			{func(b *stream.Batch) { b.Labels[4096] = 2 }, "stream: label 2 out of range [0,2)"},
			{func(b *stream.Batch) { b.Labels[0] = -1 }, "stream: label -1 out of range [0,2)"},
		}
		for _, bc := range bad {
			st, err := NewTrainStats(tc.data.Schema(), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			empty, err := json.Marshal(st.State())
			if err != nil {
				t.Fatal(err)
			}
			b, err := stream.FromTable(tc.data, tc.data.N()).Next()
			if err != nil {
				t.Fatal(err)
			}
			bc.corrupt(b)
			if err := st.AddBatch(b); err == nil || err.Error() != bc.want {
				t.Fatalf("%s: AddBatch error %v, want %q", tc.name, err, bc.want)
			}
			after, err := json.Marshal(st.State())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, empty) {
				t.Fatalf("%s: a rejected batch changed the statistics", tc.name)
			}
		}
	}
}

// Finalize reads the statistics and leaves them as they were: a second
// Finalize saves the first one's bytes, the first classifier still saves
// its own bytes afterwards, and State after Finalize equals State before it
// and is accepted by NewTrainStatsFromState. Randomized and ByClass with
// noise on some attributes have direct cells, which Finalize once
// normalized in place.
func TestFinalizeLeavesStatsIntact(t *testing.T) {
	save := func(c *Classifier) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := c.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, tc := range fanOutCases(t) {
		st, err := NewTrainStats(tc.data.Schema(), tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := stream.FromTable(tc.data, tc.data.N()).Next()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.AddBatch(b); err != nil {
			t.Fatal(err)
		}
		before := st.State()
		first, err := st.Finalize()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		firstDoc := save(first)
		after := st.State()
		if !reflect.DeepEqual(after, before) {
			t.Errorf("%s: State after Finalize differs from State before it", tc.name)
		}
		if _, err := NewTrainStatsFromState(tc.data.Schema(), tc.cfg, after); err != nil {
			t.Errorf("%s: State after Finalize rejected: %v", tc.name, err)
		}
		second, err := st.Finalize()
		if err != nil {
			t.Fatalf("%s: second Finalize: %v", tc.name, err)
		}
		if !bytes.Equal(save(second), firstDoc) {
			t.Errorf("%s: second Finalize saves different bytes", tc.name)
		}
		if !bytes.Equal(save(first), firstDoc) {
			t.Errorf("%s: the first classifier's bytes changed", tc.name)
		}
	}
}
