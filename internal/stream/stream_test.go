package stream

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"slices"
	"strings"
	"testing"

	"ppdm/internal/dataset"
	"ppdm/internal/prng"
)

func testSchema(t testing.TB) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema(
		[]dataset.Attribute{
			dataset.NumericAttr("x", 0, 100),
			dataset.NumericAttr("y", -50, 50),
		},
		[]string{"B", "A"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func testTable(t testing.TB, s *dataset.Schema, n int, seed uint64) *dataset.Table {
	t.Helper()
	r := prng.New(seed)
	tb := dataset.NewTable(s)
	for i := 0; i < n; i++ {
		if err := tb.Append([]float64{r.Uniform(0, 100), r.Uniform(-50, 50)}, r.Intn(2)); err != nil {
			t.Fatal(err)
		}
	}
	return tb
}

func TestBatchAccessors(t *testing.T) {
	b := &Batch{Start: 10, Values: []float64{1, 2, 3, 4, 5, 6}, Labels: []int{0, 1, 0}}
	if b.N() != 3 {
		t.Errorf("N = %d, want 3", b.N())
	}
	if b.NumAttrs() != 2 {
		t.Errorf("NumAttrs = %d, want 2", b.NumAttrs())
	}
	if row := b.Row(1); row[0] != 3 || row[1] != 4 {
		t.Errorf("Row(1) = %v, want [3 4]", row)
	}
	empty := &Batch{}
	if empty.NumAttrs() != 0 {
		t.Errorf("empty batch NumAttrs = %d", empty.NumAttrs())
	}
}

func TestBatchSize(t *testing.T) {
	if BatchSize(0) != DefaultBatchSize || BatchSize(-3) != DefaultBatchSize {
		t.Error("non-positive batch sizes must resolve to the default")
	}
	if BatchSize(7) != 7 {
		t.Error("positive batch size not preserved")
	}
}

func TestCheckBatch(t *testing.T) {
	s := testSchema(t)
	cases := []struct {
		name string
		b    *Batch
	}{
		{"nil batch", nil},
		{"length mismatch", &Batch{Values: []float64{1, 2, 3}, Labels: []int{0}}},
		{"bad label", &Batch{Values: []float64{1, 2}, Labels: []int{7}}},
		{"NaN value", &Batch{Values: []float64{math.NaN(), 2}, Labels: []int{0}}},
		{"Inf value", &Batch{Values: []float64{1, math.Inf(1)}, Labels: []int{0}}},
	}
	for _, tc := range cases {
		if err := CheckBatch(s, tc.b); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	ok := &Batch{Values: []float64{1, 2, 3, 4}, Labels: []int{0, 1}}
	if err := CheckBatch(s, ok); err != nil {
		t.Errorf("valid batch rejected: %v", err)
	}
	// Out-of-domain values are fine: perturbed records escape the domain.
	escaped := &Batch{Values: []float64{-1e6, 1e6}, Labels: []int{1}}
	if err := CheckBatch(s, escaped); err != nil {
		t.Errorf("out-of-domain value rejected: %v", err)
	}
}

func TestFromTableCollectRoundTrip(t *testing.T) {
	s := testSchema(t)
	tb := testTable(t, s, 257, 1)
	for _, batch := range []int{1, 7, 100, 257, 1000} {
		got, err := Collect(FromTable(tb, batch))
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if got.N() != tb.N() {
			t.Fatalf("batch %d: %d records, want %d", batch, got.N(), tb.N())
		}
		for i := 0; i < tb.N(); i++ {
			if got.Label(i) != tb.Label(i) {
				t.Fatalf("batch %d: label %d differs", batch, i)
			}
			a, b := got.Row(i), tb.Row(i)
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("batch %d: record %d attr %d differs", batch, i, j)
				}
			}
		}
	}
}

func TestFromTableBatchBoundaries(t *testing.T) {
	s := testSchema(t)
	tb := testTable(t, s, 10, 2)
	src := FromTable(tb, 4)
	var sizes []int
	start := 0
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if b.Start != start {
			t.Fatalf("batch starts at %d, want %d", b.Start, start)
		}
		sizes = append(sizes, b.N())
		start += b.N()
	}
	want := []int{4, 4, 2}
	if len(sizes) != len(want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("batch sizes %v, want %v", sizes, want)
		}
	}
}

// The compressed payload must be exactly the CSV NewCSVWriter writes, so
// gzipped streams interoperate with plain-CSV consumers after a gunzip.
func TestWriterMatchesWriteCSV(t *testing.T) {
	s := testSchema(t)
	tb := testTable(t, s, 123, 3)
	want := writeCSV(t, tb)

	var compressed bytes.Buffer
	w, err := NewWriter(&compressed, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(w, FromTable(tb, 10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.N() != tb.N() {
		t.Errorf("writer counted %d records, want %d", w.N(), tb.N())
	}

	gz, err := gzip.NewReader(&compressed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("gunzipped stream differs from NewCSVWriter output")
	}
}

func TestReaderRoundTrip(t *testing.T) {
	s := testSchema(t)
	tb := testTable(t, s, 300, 4)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(w, FromTable(tb, 64)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Re-chunk on read with a batch size unrelated to the writer's.
	r, err := NewReader(bytes.NewReader(buf.Bytes()), s, 37)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(r)
	if err != nil {
		t.Fatal(err)
	}
	if r.N() != tb.N() {
		t.Errorf("reader counted %d records, want %d", r.N(), tb.N())
	}
	for i := 0; i < tb.N(); i++ {
		if got.Label(i) != tb.Label(i) {
			t.Fatalf("label %d differs", i)
		}
		a, b := got.Row(i), tb.Row(i)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("record %d attr %d: %v != %v", i, j, a[j], b[j])
			}
		}
	}
}

// readAll reads a stream to EOF in batches of batch records through
// newReader (NewReader or NewCSVReader), returning every batch.
func readAll(newReader func(io.Reader, *dataset.Schema, int) (*Reader, error),
	raw []byte, s *dataset.Schema, batch int) ([]*Batch, error) {
	r, err := newReader(bytes.NewReader(raw), s, batch)
	if err != nil {
		return nil, err
	}
	var batches []*Batch
	for {
		b, err := r.Next()
		if err == io.EOF {
			return batches, nil
		}
		if err != nil {
			return nil, err
		}
		batches = append(batches, b)
	}
}

// gzipBytes compresses data.
func gzipBytes(t testing.TB, data []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	zw := gzip.NewWriter(&out)
	if _, err := zw.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// sameBatches reports whether two batch sequences hold the same starts,
// labels and bit-equal values.
func sameBatches(a, b []*Batch) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Start != b[i].Start || !slices.Equal(a[i].Labels, b[i].Labels) ||
			len(a[i].Values) != len(b[i].Values) {
			return false
		}
		for j, v := range a[i].Values {
			if math.Float64bits(v) != math.Float64bits(b[i].Values[j]) {
				return false
			}
		}
	}
	return true
}

// FuzzStreamReader feeds arbitrary CSV text raw to NewCSVReader and gzipped
// to NewReader — the decoders that ppdm-train, ppdm-eval, the /classify
// endpoint and the shard workers read — and reads both to EOF. They must
// return the same batches or both fail. A stream they accept must re-encode
// through NewWriter and WriteBatch and read back to the same labels and
// bit-equal values.
func FuzzStreamReader(f *testing.F) {
	s := testSchema(f)
	f.Add(writeCSV(f, testTable(f, s, 20, 5)))                                         // a Writer stream
	f.Add([]byte("x,y,class\n0.1,-49.99999999999999,A\n3.141592653589793,5e-324,B\n")) // full-precision values
	f.Add([]byte("x,y,class\n"))                                                       // header only
	f.Add([]byte("x,z,class\n1,2,A\n"))                                                // bad header
	f.Add([]byte("x,y,class\n1,2,A\n3,B\n"))                                           // wrong field count
	f.Add([]byte("x,y,class\nNaN,2,A\n1,+Inf,B\n-inf,0,A\n"))                          // non-finite text
	f.Add([]byte("x,y,class\n12." + strings.Repeat("3", 5000) + ",-0,B\n"))            // overlong line
	f.Fuzz(func(t *testing.T, text []byte) {
		batches, err := readAll(NewReader, gzipBytes(t, text), s, 3)
		plain, plainErr := readAll(NewCSVReader, text, s, 3)
		if (err == nil) != (plainErr == nil) {
			t.Fatalf("gzipped read error %v, plain read error %v", err, plainErr)
		}
		if err != nil {
			return
		}
		if !sameBatches(batches, plain) {
			t.Fatal("plain and gzipped reads return different batches")
		}
		var out bytes.Buffer
		w, err := NewWriter(&out, s)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := w.WriteBatch(b); err != nil {
				t.Fatalf("accepted records do not re-encode: %v", err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		back, err := readAll(NewReader, out.Bytes(), s, 3)
		if err != nil {
			t.Fatalf("re-encoded stream rejected: %v", err)
		}
		if !sameBatches(back, batches) {
			t.Fatal("re-encoded stream reads back to different records")
		}
	})
}

func TestReaderRejectsBadHeader(t *testing.T) {
	s := testSchema(t)
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	gz.Write([]byte("wrong,header,class\n"))
	gz.Close()
	if _, err := NewReader(bytes.NewReader(buf.Bytes()), s, 0); err == nil {
		t.Error("bad header accepted")
	}
	if _, err := NewReader(bytes.NewReader([]byte("not gzip")), s, 0); err == nil {
		t.Error("non-gzip input accepted")
	}
}

func TestWriterRejectsOutOfOrderBatch(t *testing.T) {
	s := testSchema(t)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, s)
	if err != nil {
		t.Fatal(err)
	}
	b := &Batch{Start: 5, Values: []float64{1, 2}, Labels: []int{0}}
	if err := w.WriteBatch(b); err == nil {
		t.Error("out-of-order batch accepted")
	}
}

// The cursor must reproduce SplitN's substreams exactly: walking any ragged
// advance pattern over the grid yields the same per-chunk draws as indexing
// SplitN children directly.
func TestChunkCursorMatchesSplitN(t *testing.T) {
	const chunk = 16
	const n = 100
	const seed = 99

	// Reference: the in-memory decomposition.
	numChunks := (n + chunk - 1) / chunk
	srcs := prng.SplitN(seed, numChunks)
	want := make([]uint64, n)
	for c := 0; c < numChunks; c++ {
		lo, hi := c*chunk, (c+1)*chunk
		if hi > n {
			hi = n
		}
		for i := lo; i < hi; i++ {
			want[i] = srcs[c].Uint64()
		}
	}

	for _, advances := range [][]int{
		{100},
		{1, 99},
		{16, 16, 16, 16, 16, 16, 4},
		{7, 13, 29, 31, 20},
		{50, 50},
	} {
		cur := NewChunkCursor(seed, chunk)
		got := make([]uint64, 0, n)
		for _, adv := range advances {
			spans, err := cur.Advance(adv)
			if err != nil {
				t.Fatal(err)
			}
			for _, sp := range spans {
				for i := sp.Lo; i < sp.Hi; i++ {
					got = append(got, sp.R.Uint64())
				}
			}
		}
		if len(got) != n {
			t.Fatalf("advances %v: %d draws, want %d", advances, len(got), n)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("advances %v: draw %d = %d, want %d", advances, i, got[i], want[i])
			}
		}
	}
}

func TestChunkCursorValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("chunk <= 0 did not panic")
		}
	}()
	cur := NewChunkCursor(1, 8)
	if _, err := cur.Advance(-1); err == nil {
		t.Error("negative advance accepted")
	}
	if spans, err := cur.Advance(0); err != nil || len(spans) != 0 {
		t.Error("zero advance must yield no spans")
	}
	NewChunkCursor(1, 0)
}

func TestCollectValidatesOrder(t *testing.T) {
	s := testSchema(t)
	bad := &fakeSource{
		schema: s,
		batches: []*Batch{
			{Start: 3, Values: []float64{1, 2}, Labels: []int{0}},
		},
	}
	if _, err := Collect(bad); err == nil {
		t.Error("misordered stream accepted")
	}
	empty := &fakeSource{schema: s}
	if _, err := Collect(empty); err == nil {
		t.Error("empty stream accepted")
	}
}

type fakeSource struct {
	schema  *dataset.Schema
	batches []*Batch
	i       int
}

func (f *fakeSource) Schema() *dataset.Schema { return f.schema }

func (f *fakeSource) Next() (*Batch, error) {
	if f.i >= len(f.batches) {
		return nil, io.EOF
	}
	b := f.batches[f.i]
	f.i++
	return b, nil
}
