package reconstruct

import (
	"io"
	"runtime"
	"slices"
	"testing"

	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/prng"
	"ppdm/internal/stream"
)

func streamStatsTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	s, err := dataset.NewSchema(
		[]dataset.Attribute{
			dataset.NumericAttr("u", 0, 100),
			dataset.NumericAttr("v", 0, 10),
		},
		[]string{"B", "A"},
	)
	if err != nil {
		t.Fatal(err)
	}
	r := prng.New(31)
	tb := dataset.NewTable(s)
	for i := 0; i < n; i++ {
		// Perturbed-looking values that escape the domain on both sides.
		if err := tb.Append([]float64{r.Uniform(-30, 130), r.Uniform(-3, 13)}, r.Intn(2)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

// Collecting a stream must reproduce the column-at-a-time reconstruction
// exactly: same collectors, same class counts, bit-identical estimates.
func TestCollectStreamMatchesColumns(t *testing.T) {
	tb := streamStatsTable(t, 4000)
	part0, _ := NewPartition(0, 100, 12)
	part1, _ := NewPartition(0, 10, 8)
	parts := map[int]Partition{0: part0, 1: part1}
	m := noise.Uniform{Alpha: 30}
	models := map[int]noise.Model{0: m, 1: m}

	st, err := CollectStream(stream.FromTable(tb, 300), parts, models)
	if err != nil {
		t.Fatal(err)
	}
	if st.N() != tb.N() {
		t.Fatalf("collected %d records, want %d", st.N(), tb.N())
	}
	wantCounts := tb.ClassCounts()
	for c, n := range st.ClassCounts() {
		if n != wantCounts[c] {
			t.Fatalf("class %d count %d, want %d", c, n, wantCounts[c])
		}
	}

	for j, part := range parts {
		// All-classes estimate vs Reconstruct on the materialized column.
		want, err := Reconstruct(tb.Column(j), Config{Partition: part, Noise: m})
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Collector(j).Reconstruct(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if got.Iters != want.Iters || got.Converged != want.Converged {
			t.Fatalf("attr %d: convergence differs (streamed %d/%v, batch %d/%v)",
				j, got.Iters, got.Converged, want.Iters, want.Converged)
		}
		for b := range want.P {
			if got.P[b] != want.P[b] { // bitwise float equality, on purpose
				t.Fatalf("attr %d bin %d: streamed %v != batch %v", j, b, got.P[b], want.P[b])
			}
		}
		// Per-class estimates vs ColumnForClass.
		for c := 0; c < tb.Schema().NumClasses(); c++ {
			values, _ := tb.ColumnForClass(j, c)
			wantC, err := Reconstruct(values, Config{Partition: part, Noise: m})
			if err != nil {
				t.Fatal(err)
			}
			col := st.ClassCollector(j, c)
			if col.N() != len(values) {
				t.Fatalf("attr %d class %d: collector has %d, want %d", j, c, col.N(), len(values))
			}
			gotC, err := col.Reconstruct(Config{})
			if err != nil {
				t.Fatal(err)
			}
			for b := range wantC.P {
				if gotC.P[b] != wantC.P[b] {
					t.Fatalf("attr %d class %d bin %d differs", j, c, b)
				}
			}
		}
	}
}

func TestStreamStatsValidation(t *testing.T) {
	tb := streamStatsTable(t, 10)
	models := map[int]noise.Model{0: noise.Uniform{Alpha: 30}, 9: noise.Uniform{Alpha: 30}}
	if _, err := CollectStream(stream.FromTable(tb, 0), nil, models); err == nil {
		t.Error("empty partition map accepted")
	}
	part, _ := NewPartition(0, 100, 5)
	if _, err := NewStreamStats(tb.Schema(), map[int]Partition{9: part}, models); err == nil {
		t.Error("out-of-range attribute accepted")
	}
	if _, err := NewStreamStats(tb.Schema(), map[int]Partition{0: {Lo: 1, Hi: 0, K: 5}}, models); err == nil {
		t.Error("invalid partition accepted")
	}
	if _, err := NewStreamStats(tb.Schema(), map[int]Partition{1: part}, models); err == nil {
		t.Error("attribute without a noise model accepted")
	}
	st, err := NewStreamStats(tb.Schema(), map[int]Partition{0: part}, models)
	if err != nil {
		t.Fatal(err)
	}
	if st.Collector(1) != nil {
		t.Error("unrequested attribute returned a collector")
	}
	if st.ClassCollector(0, 99) != nil {
		t.Error("out-of-range class returned a collector")
	}
	if st.Schema() != tb.Schema() {
		t.Error("Schema not returned")
	}
}

// AddBatch bins one attribute per task and grows each collector's record
// count once per batch. After every batch, at any GOMAXPROCS and batch size,
// the collectors must hold exactly what adding the records one at a time
// gives.
func TestStreamStatsAddBatchMatchesPerRecord(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tb := streamStatsTable(t, 9000)
	part0, _ := NewPartition(0, 100, 12)
	part1, _ := NewPartition(0, 10, 8)
	parts := map[int]Partition{0: part0, 1: part1}
	models := map[int]noise.Model{0: noise.Uniform{Alpha: 30}, 1: noise.Gaussian{Sigma: 2}}

	for _, procs := range []int{1, 8} {
		runtime.GOMAXPROCS(procs)
		for _, batch := range []int{1, 7, 1000, 8192} {
			st, err := NewStreamStats(tb.Schema(), parts, models)
			if err != nil {
				t.Fatal(err)
			}
			oracle := make(map[int][]*Collector)
			for j, part := range parts {
				for range tb.Schema().NumClasses() {
					c, err := NewCollector(part, models[j])
					if err != nil {
						t.Fatal(err)
					}
					oracle[j] = append(oracle[j], c)
				}
			}
			src := stream.FromTable(tb, batch)
			for {
				b, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if err := st.AddBatch(b); err != nil {
					t.Fatal(err)
				}
				for i := range b.N() {
					for j := range parts {
						if err := oracle[j][b.Labels[i]].Add(b.Row(i)[j]); err != nil {
							t.Fatal(err)
						}
					}
				}
				for j, perClass := range oracle {
					for cl, want := range perClass {
						got := st.ClassCollector(j, cl)
						if got.n != want.n || !slices.Equal(got.counts, want.counts) {
							t.Fatalf("GOMAXPROCS %d, batch %d, after record %d: attribute %d class %d collector holds n=%d, want n=%d",
								procs, batch, b.Start+b.N(), j, cl, got.n, want.n)
						}
					}
				}
			}
			if st.N() != tb.N() || !slices.Equal(st.ClassCounts(), tb.ClassCounts()) {
				t.Fatalf("GOMAXPROCS %d, batch %d: %d records in classes %v, want %d in %v",
					procs, batch, st.N(), st.ClassCounts(), tb.N(), tb.ClassCounts())
			}
		}
	}
}
