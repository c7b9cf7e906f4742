package stream

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"testing/quick"

	"ppdm/internal/prng"
)

// sameBits reports whether two float slices hold the same IEEE 754 bit
// patterns (so NaN payloads and signed zeros count).
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// sameInts reports whether the decoded uint32 values equal the written ints.
func sameInts(got []uint32, want []int) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if int(got[i]) != want[i] {
			return false
		}
	}
	return true
}

// specialFloats are the values a float codec is likeliest to mangle.
var specialFloats = []float64{
	math.Float64frombits(0x7ff8_0000_dead_beef), // quiet NaN with a payload
	math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
	math.Float64frombits(0xfff8_0000_0000_0000), // negative NaN
	math.Copysign(0, -1), 0,
	math.Inf(1), math.Inf(-1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000f_ffff_ffff_ffff), // largest subnormal
	math.MaxFloat64, -math.MaxFloat64,
}

func TestSegmentRoundTripFloats(t *testing.T) {
	r := prng.New(7)
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	want := make([][]float64, 5)
	for s := range want {
		vals := make([]float64, 100+s*37)
		for i := range vals {
			// Adversarial values: full-precision doubles, negatives, tiny
			// and huge magnitudes — the codec must round-trip bits.
			vals[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(60)-30))
		}
		want[s] = vals
		if err := w.WriteFloats(vals); err != nil {
			t.Fatal(err)
		}
	}
	if w.Segments() != 5 {
		t.Fatalf("writer reports %d segments, want 5", w.Segments())
	}

	rd := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index())
	if rd.N() != w.N() {
		t.Fatalf("reader N %d != writer N %d", rd.N(), w.N())
	}
	// Read out of order on purpose.
	for _, s := range []int{3, 0, 4, 2, 1} {
		got := make([]float64, rd.Count(s))
		if err := rd.ReadFloats(s, got); err != nil {
			t.Fatal(err)
		}
		if !sameBits(got, want[s]) {
			t.Fatalf("segment %d does not round-trip bit for bit", s)
		}
	}
}

func TestSegmentRoundTripInts(t *testing.T) {
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	want := [][]int{{0, 1, 2, 49}, {5}, {7, 7, 7, 7, 7, 7}, {math.MaxUint32, 0}}
	for _, vals := range want {
		if err := w.WriteInts(vals); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index())
	for s := range want {
		if rd.Count(s) != len(want[s]) {
			t.Fatalf("index count %d, want %d", rd.Count(s), len(want[s]))
		}
		got := make([]uint32, rd.Count(s))
		if err := rd.ReadInts(s, got); err != nil {
			t.Fatal(err)
		}
		if !sameInts(got, want[s]) {
			t.Fatalf("segment %d: %v, want %v", s, got, want[s])
		}
	}
}

// TestSegmentRoundTripProperty writes random bit patterns (every NaN payload
// and subnormal is fair game) beside the special values, plus random uint32
// integers and MaxUint32, and requires each back bit for bit.
func TestSegmentRoundTripProperty(t *testing.T) {
	prop := func(bits []uint64, ints []uint32) bool {
		floats := append([]float64(nil), specialFloats...)
		for _, b := range bits {
			floats = append(floats, math.Float64frombits(b))
		}
		vals := []int{math.MaxUint32}
		for _, v := range ints {
			vals = append(vals, int(v))
		}
		var buf bytes.Buffer
		w := NewSegmentWriter(&buf)
		if w.WriteFloats(floats) != nil || w.WriteInts(vals) != nil {
			return false
		}
		rd := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index())
		gotF := make([]float64, len(floats))
		gotI := make([]uint32, len(vals))
		if rd.ReadFloats(0, gotF) != nil || rd.ReadInts(1, gotI) != nil {
			return false
		}
		return sameBits(gotF, floats) && sameInts(gotI, vals)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentWriterRejectsEmpty(t *testing.T) {
	w := NewSegmentWriter(&bytes.Buffer{})
	if err := w.WriteInts(nil); err == nil {
		t.Fatal("empty segment accepted")
	}
	if err := w.WriteFloats([]float64{}); err == nil {
		t.Fatal("empty float segment accepted")
	}
}

// TestSegmentWriterRejectsOutOfRangeInts: integers are stored at 4 bytes,
// so a value that does not fit a uint32 must fail the write, not wrap.
func TestSegmentWriterRejectsOutOfRangeInts(t *testing.T) {
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	for _, v := range []int{-1, math.MinInt32, math.MaxUint32 + 1, math.MaxInt} {
		if err := w.WriteInts([]int{0, v}); err == nil {
			t.Errorf("WriteInts accepted %d", v)
		}
	}
	if w.Segments() != 0 || buf.Len() != 0 {
		t.Fatalf("rejected writes left %d segments, %d bytes", w.Segments(), buf.Len())
	}
}

func TestSegmentReaderBounds(t *testing.T) {
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	if err := w.WriteInts([]int{1, 2}); err != nil {
		t.Fatal(err)
	}
	rd := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index())
	if err := rd.ReadInts(-1, make([]uint32, 2)); err == nil {
		t.Error("negative segment accepted")
	}
	if err := rd.ReadInts(1, make([]uint32, 2)); err == nil {
		t.Error("out-of-range segment accepted")
	}
	if err := rd.ReadInts(0, make([]uint32, 3)); err == nil {
		t.Error("destination longer than the segment accepted")
	}
	// Type confusion fails both ways: the value widths differ, so the
	// segment's size never matches the other type's.
	if err := rd.ReadFloats(0, make([]float64, 2)); err == nil {
		t.Error("float decode of an int segment succeeded")
	}
	var fbuf bytes.Buffer
	fw := NewSegmentWriter(&fbuf)
	if err := fw.WriteFloats([]float64{1.5, 2.5}); err != nil {
		t.Fatal(err)
	}
	frd := NewSegmentReader(bytes.NewReader(fbuf.Bytes()), fw.Index())
	if err := frd.ReadInts(0, make([]uint32, 2)); err == nil {
		t.Error("int decode of a float segment succeeded")
	}
}

// TestSegmentCorruptionDetected flips every byte of a two-segment file in
// turn and cuts it at every length: the segment holding the damage must
// fail to read, and the other must still read back exactly.
func TestSegmentCorruptionDetected(t *testing.T) {
	floats := []float64{1.25, -3, math.Pi}
	ints := []int{4, 0, 9, 1}
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	if err := w.WriteFloats(floats); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteInts(ints); err != nil {
		t.Fatal(err)
	}
	idx := w.Index()
	file := buf.Bytes()
	check := func(data []byte, damaged func(seg int) bool, what string) {
		t.Helper()
		rd := NewSegmentReader(bytes.NewReader(data), idx)
		gotF := make([]float64, len(floats))
		gotI := make([]uint32, len(ints))
		errs := []error{rd.ReadFloats(0, gotF), rd.ReadInts(1, gotI)}
		ok := []bool{sameBits(gotF, floats), sameInts(gotI, ints)}
		for seg, err := range errs {
			switch {
			case damaged(seg) && err == nil:
				t.Fatalf("%s: segment %d read without error", what, seg)
			case !damaged(seg) && (err != nil || !ok[seg]):
				t.Fatalf("%s: undamaged segment %d: err %v, exact %v", what, seg, err, ok[seg])
			}
		}
	}
	for i := range file {
		data := bytes.Clone(file)
		data[i] ^= 0xff
		check(data, func(seg int) bool {
			return int64(i) >= idx[seg].Off && int64(i) < idx[seg].Off+idx[seg].Size
		}, "byte flip")
	}
	for n := range file {
		check(file[:n], func(seg int) bool { return int64(n) < idx[seg].Off+idx[seg].Size }, "truncation")
	}
}

// TestSegmentReaderAllocs: decoding into caller storage allocates nothing.
func TestSegmentReaderAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	const n = 8192
	floats := make([]float64, n)
	ints := make([]int, n)
	for i := range floats {
		floats[i] = float64(i) / 3
		ints[i] = i
	}
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	if err := w.WriteFloats(floats); err != nil {
		t.Fatal(err)
	}
	if err := w.WriteInts(ints); err != nil {
		t.Fatal(err)
	}
	rd := NewSegmentReader(bytes.NewReader(buf.Bytes()), w.Index())
	gotF := make([]float64, n)
	gotI := make([]uint32, n)
	allocs := testing.AllocsPerRun(20, func() {
		if rd.ReadFloats(0, gotF) != nil || rd.ReadInts(1, gotI) != nil {
			t.Fatal("read failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("reading two segments allocates %.1f times", allocs)
	}
}

// Segment files must work through real files and concurrent readers (the
// tree's parallel split search reads different attributes at once).
func TestSegmentFileConcurrentReads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "col.seg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := NewSegmentWriter(f)
	const segs, per = 16, 512
	for s := 0; s < segs; s++ {
		vals := make([]int, per)
		for i := range vals {
			vals[i] = s*per + i
		}
		if err := w.WriteInts(vals); err != nil {
			t.Fatal(err)
		}
	}
	rd := NewSegmentReader(f, w.Index())
	errs := make(chan error, segs)
	for g := 0; g < 8; g++ {
		go func(g int) {
			vals := make([]uint32, per)
			for s := g; s < segs; s += 8 {
				if err := rd.ReadInts(s, vals); err != nil {
					errs <- err
					return
				}
				for i, v := range vals {
					if int(v) != s*per+i {
						errs <- os.ErrInvalid
						return
					}
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	f.Close()
}

// fixtureSeg is one segment of the fuzz fixture: floats or ints.
type fixtureSeg struct {
	floats []float64
	ints   []int
}

// segmentFixture writes the file every FuzzSegmentReader input mutates:
// float and integer segments of several lengths, holding the special values
// and the extremes of the integer width.
func segmentFixture(tb testing.TB) ([]byte, []Segment, []fixtureSeg) {
	tb.Helper()
	r := prng.New(1)
	long := make([]float64, 100)
	for i := range long {
		long[i] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(40)-20))
	}
	longInts := make([]int, 64)
	for i := range longInts {
		longInts[i] = r.Intn(1 << 20)
	}
	segs := []fixtureSeg{
		{floats: specialFloats},
		{ints: []int{0, 1, 2, math.MaxUint32, 1 << 31}},
		{floats: long},
		{ints: longInts},
	}
	var buf bytes.Buffer
	w := NewSegmentWriter(&buf)
	for _, s := range segs {
		var err error
		if s.floats != nil {
			err = w.WriteFloats(s.floats)
		} else {
			err = w.WriteInts(s.ints)
		}
		if err != nil {
			tb.Fatal(err)
		}
	}
	return buf.Bytes(), w.Index(), segs
}

// FuzzSegmentReader reads the fixture's segments, with the writer's index,
// from any mutation of the file the writer produced. Each segment must come
// back exactly as written or fail with an error — never a panic, never
// different values — and reading every segment into caller storage must
// allocate no more than the index's Count×width bytes. The allocation
// check reads process-wide TotalAlloc, so the test runs at GOMAXPROCS 1:
// with more Ps, a stop-the-world restart inside the window can start an OS
// thread whose runtime structures count against the budget.
func FuzzSegmentReader(f *testing.F) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	file, idx, segs := segmentFixture(f)
	f.Add(file)
	budget := uint64(0)
	for _, s := range segs {
		budget += uint64(len(s.floats))*floatWidth + uint64(len(s.ints))*intWidth
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := NewSegmentReader(bytes.NewReader(data), idx)
		floats := make([][]float64, len(segs))
		ints := make([][]uint32, len(segs))
		for i, s := range segs {
			floats[i] = make([]float64, len(s.floats))
			ints[i] = make([]uint32, len(s.ints))
		}
		errs := make([]error, len(segs))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i, s := range segs {
			if s.floats != nil {
				errs[i] = rd.ReadFloats(i, floats[i])
			} else {
				errs[i] = rd.ReadInts(i, ints[i])
			}
		}
		runtime.ReadMemStats(&after)
		for i, s := range segs {
			if errs[i] != nil {
				continue
			}
			if s.floats != nil && !sameBits(floats[i], s.floats) || s.ints != nil && !sameInts(ints[i], s.ints) {
				t.Fatalf("segment %d read without error but differs from what was written", i)
			}
		}
		if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got > budget {
			t.Fatalf("reading the segments allocated %d bytes, the index declares %d", got, budget)
		}
	})
}
