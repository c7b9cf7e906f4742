package tree

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ppdm/internal/prng"
	"ppdm/internal/stream"
)

// valuesOnlySource hides a StaticSource's columnar interface, forcing the
// legacy row-pull (Values) engine — the reference the columnar engine must
// reproduce exactly.
type valuesOnlySource struct {
	s *StaticSource
}

func (v *valuesOnlySource) Len() int          { return v.s.Len() }
func (v *valuesOnlySource) NumAttrs() int     { return v.s.NumAttrs() }
func (v *valuesOnlySource) Bins(attr int) int { return v.s.Bins(attr) }
func (v *valuesOnlySource) NumClasses() int   { return v.s.NumClasses() }
func (v *valuesOnlySource) Label(row int) int { return v.s.Label(row) }
func (v *valuesOnlySource) Values(attr int, rows []int, span Span, dst []int) []int {
	return v.s.Values(attr, rows, span, dst)
}

// randomCols draws a noisy multi-attribute dataset big enough to split
// repeatedly and to cross several SegLen segments.
func randomCols(seed uint64, n, attrs, bins, classes int) (cols [][]int, labels []int) {
	r := prng.New(seed)
	cols = make([][]int, attrs)
	for a := range cols {
		col := make([]int, n)
		for i := range col {
			col[i] = r.Intn(bins)
		}
		cols[a] = col
	}
	labels = make([]int, n)
	for i := range labels {
		// correlate the label with attribute 0 plus noise so real splits
		// exist at many depths
		l := 0
		if cols[0][i] >= bins/2 {
			l = 1
		}
		if r.Bernoulli(0.25) {
			l = r.Intn(classes)
		}
		labels[i] = l
	}
	return cols, labels
}

func treesEqual(t *testing.T, a, b *Tree) {
	t.Helper()
	if a.String() != b.String() {
		t.Fatal("tree structures differ")
	}
	if !reflect.DeepEqual(a.Importance, b.Importance) {
		t.Fatalf("Importance differs: %v vs %v", a.Importance, b.Importance)
	}
}

// TestColumnarMatchesValuesEngine grows the same data through the columnar
// engine (StaticSource) and the legacy row-pull path and demands identical
// trees — structure, counts, and bit-identical Importance.
func TestColumnarMatchesValuesEngine(t *testing.T) {
	const n, attrs, bins, classes = 30000, 4, 12, 3
	cols, labels := randomCols(11, n, attrs, bins, classes)
	binsV := []int{bins, bins, bins, bins}
	static, err := NewStaticSource(cols, binsV, labels, classes)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{
		{},
		{MinLeaf: 1, DisablePruning: true},
		{MaxDepth: 4},
	} {
		colTree, err := Grow(static, cfg)
		if err != nil {
			t.Fatal(err)
		}
		valTree, err := Grow(&valuesOnlySource{s: static}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		treesEqual(t, colTree, valTree)
	}
}

// spillFromCols writes columns through the segment codec into temp files
// and wraps them in a SpillSource.
func spillFromCols(t *testing.T, cols [][]int, bins []int, labels []int, classes, cache int) *SpillSource {
	t.Helper()
	dir := t.TempDir()
	readers := make([]*stream.SegmentReader, len(cols))
	for a, col := range cols {
		f, err := os.Create(filepath.Join(dir, "col"+string(rune('a'+a))))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		w := stream.NewSegmentWriter(f)
		for lo := 0; lo < len(col); lo += SegLen {
			hi := lo + SegLen
			if hi > len(col) {
				hi = len(col)
			}
			if err := w.WriteInts(col[lo:hi]); err != nil {
				t.Fatal(err)
			}
		}
		readers[a] = stream.NewSegmentReader(f, w.Index())
	}
	src, err := NewSpillSource(readers, bins, labels, classes, cache)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSpillSourceMatchesStatic grows from disk-spilled segments (including
// with a pathologically small cache) and compares against the in-memory
// columnar tree.
func TestSpillSourceMatchesStatic(t *testing.T) {
	const n, attrs, bins, classes = 25000, 3, 10, 2
	cols, labels := randomCols(5, n, attrs, bins, classes)
	binsV := []int{bins, bins, bins}
	static, err := NewStaticSource(cols, binsV, labels, classes)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MinLeaf: 20}
	want, err := Grow(static, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []int{0, 1, 2} {
		spill := spillFromCols(t, cols, binsV, labels, classes, cache)
		got, err := Grow(spill, cfg)
		if err != nil {
			t.Fatalf("cache %d: %v", cache, err)
		}
		treesEqual(t, want, got)
	}
}

// TestSubtreeParallelDeterminism forces deep forking (tiny cutoff) at
// several worker counts; every tree must be identical to the serial one.
func TestSubtreeParallelDeterminism(t *testing.T) {
	const n, attrs, bins, classes = 40000, 5, 16, 3
	cols, labels := randomCols(23, n, attrs, bins, classes)
	binsV := []int{bins, bins, bins, bins, bins}
	static, err := NewStaticSource(cols, binsV, labels, classes)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{MinLeaf: 5, DisablePruning: true, SubtreeMinRows: 32}
	serialCfg := base
	serialCfg.Workers = 1
	want, err := Grow(static, serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		cfg := base
		cfg.Workers = workers
		for rep := 0; rep < 3; rep++ {
			got, err := Grow(static, cfg)
			if err != nil {
				t.Fatal(err)
			}
			treesEqual(t, want, got)
		}
	}
	// Subtree parallelism disabled must also agree.
	off := base
	off.SubtreeMinRows = -1
	off.Workers = 8
	got, err := Grow(static, off)
	if err != nil {
		t.Fatal(err)
	}
	treesEqual(t, want, got)
}

// TestMemAttrListValidation covers the columnar constructors' edges.
func TestMemAttrListValidation(t *testing.T) {
	if _, err := NewMemAttrList([]int{0, 3}, 3); err == nil {
		t.Error("out-of-range value accepted")
	}
	if _, err := NewMemAttrList([]int{0}, 0); err == nil {
		t.Error("zero bins accepted")
	}
	l, err := NewMemAttrList([]int{1, 0, 2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if l.Len() != 3 {
		t.Errorf("Len = %d, want 3", l.Len())
	}
	seg, err := l.Segment(0)
	if err != nil || len(seg) != 3 || seg[0] != 1 {
		t.Errorf("Segment(0) = %v, %v", seg, err)
	}
	if _, err := l.Segment(1); err == nil {
		t.Error("out-of-range segment accepted")
	}
}

// TestSpillSourceValidation covers grid and consistency checks.
func TestSpillSourceValidation(t *testing.T) {
	labels := []int{0, 1, 0, 1}
	// Mismatched column length, bad labels, empty reader set: construct
	// readers manually.
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "short"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := stream.NewSegmentWriter(f)
	if err := w.WriteInts([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	r := stream.NewSegmentReader(f, w.Index())
	if _, err := NewSpillSource([]*stream.SegmentReader{r}, []int{3}, labels, 2, 0); err == nil {
		t.Error("column shorter than labels accepted")
	}
	if _, err := NewSpillSource([]*stream.SegmentReader{r}, []int{3}, []int{0, 5}, 2, 0); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := NewSpillSource(nil, nil, labels, 2, 0); err == nil {
		t.Error("empty reader set accepted")
	}
}

// TestSpillCorruptSegmentFailsGrowth flips one byte inside a spilled bins
// segment: Grow must return an error — no panic and no model — even when the
// damaged value would still be a valid interval index.
func TestSpillCorruptSegmentFailsGrowth(t *testing.T) {
	const n, bins, classes = 3 * SegLen, 4, 2
	cols, labels := randomCols(9, n, 2, bins, classes)
	dir := t.TempDir()
	readers := make([]*stream.SegmentReader, len(cols))
	var victim *os.File
	var victimIdx []stream.Segment
	for a, col := range cols {
		f, err := os.Create(filepath.Join(dir, "col"+string(rune('a'+a))))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		w := stream.NewSegmentWriter(f)
		for lo := 0; lo < n; lo += SegLen {
			if err := w.WriteInts(col[lo : lo+SegLen]); err != nil {
				t.Fatal(err)
			}
		}
		readers[a] = stream.NewSegmentReader(f, w.Index())
		victim, victimIdx = f, w.Index()
	}
	// The low byte of one value in the middle segment of the last column:
	// 0..3 xor 1 is still inside [0, bins), so only the checksum can tell.
	off := victimIdx[1].Off + 4*100
	b := make([]byte, 1)
	if _, err := victim.ReadAt(b, off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 1
	if _, err := victim.WriteAt(b, off); err != nil {
		t.Fatal(err)
	}
	src, err := NewSpillSource(readers, []int{bins, bins}, labels, classes, 0)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Grow(src, Config{MinLeaf: 1})
	if err == nil || tr != nil {
		t.Fatalf("Grow over a corrupt spill returned tree %v, error %v", tr != nil, err)
	}
}

// TestSpillValueOutOfRange ensures a corrupt spilled value surfaces as an
// error from Grow rather than corrupting the histogram.
func TestSpillValueOutOfRange(t *testing.T) {
	n := 100
	col := make([]int, n)
	labels := make([]int, n)
	for i := range col {
		col[i] = i % 4
		labels[i] = i % 2
	}
	// Declare fewer bins than the data uses: values 2..3 become invalid on
	// read.
	dir := t.TempDir()
	f, err := os.Create(filepath.Join(dir, "bad"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := stream.NewSegmentWriter(f)
	if err := w.WriteInts(col); err != nil {
		t.Fatal(err)
	}
	r := stream.NewSegmentReader(f, w.Index())
	src, err := NewSpillSource([]*stream.SegmentReader{r}, []int{2}, labels, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Grow(src, Config{MinLeaf: 1}); err == nil {
		t.Fatal("out-of-range spilled value did not error")
	}
}
