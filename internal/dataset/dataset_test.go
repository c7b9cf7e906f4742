package dataset

import (
	"math"
	"testing"
)

func testSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		[]Attribute{
			NumericAttr("age", 20, 80),
			NumericAttr("salary", 20000, 150000),
			CategoricalAttr("elevel", 5),
		},
		[]string{"B", "A"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSchemaValidation(t *testing.T) {
	cases := []struct {
		name    string
		attrs   []Attribute
		classes []string
	}{
		{"no attrs", nil, []string{"A", "B"}},
		{"one class", []Attribute{NumericAttr("x", 0, 1)}, []string{"A"}},
		{"dup attr", []Attribute{NumericAttr("x", 0, 1), NumericAttr("x", 0, 2)}, []string{"A", "B"}},
		{"dup class", []Attribute{NumericAttr("x", 0, 1)}, []string{"A", "A"}},
		{"empty class", []Attribute{NumericAttr("x", 0, 1)}, []string{"A", ""}},
		{"empty attr name", []Attribute{NumericAttr("", 0, 1)}, []string{"A", "B"}},
		{"empty domain", []Attribute{NumericAttr("x", 1, 1)}, []string{"A", "B"}},
		{"nan bound", []Attribute{NumericAttr("x", math.NaN(), 1)}, []string{"A", "B"}},
		{"card 1", []Attribute{CategoricalAttr("x", 1)}, []string{"A", "B"}},
	}
	for _, c := range cases {
		if _, err := NewSchema(c.attrs, c.classes); err == nil {
			t.Errorf("%s: NewSchema succeeded, want error", c.name)
		}
	}
}

func TestSchemaLookups(t *testing.T) {
	s := testSchema(t)
	if i, ok := s.AttrIndex("salary"); !ok || i != 1 {
		t.Errorf("AttrIndex(salary) = %d, %v", i, ok)
	}
	if _, ok := s.AttrIndex("nope"); ok {
		t.Error("AttrIndex(nope) found")
	}
	if s.ClassIndex("A") != 1 || s.ClassIndex("B") != 0 || s.ClassIndex("C") != -1 {
		t.Error("ClassIndex wrong")
	}
	if s.NumAttrs() != 3 || s.NumClasses() != 2 {
		t.Error("schema dims wrong")
	}
}

func TestAttributeContains(t *testing.T) {
	num := NumericAttr("x", 0, 10)
	if !num.Contains(0) || !num.Contains(10) || num.Contains(-0.1) || num.Contains(math.NaN()) {
		t.Error("numeric Contains wrong")
	}
	cat := CategoricalAttr("c", 3)
	if !cat.Contains(0) || !cat.Contains(2) || cat.Contains(3) || cat.Contains(1.5) {
		t.Error("categorical Contains wrong")
	}
	if num.Width() != 10 {
		t.Error("Width wrong")
	}
}

func TestAppendValidation(t *testing.T) {
	tb := NewTable(testSchema(t))
	if err := tb.Append([]float64{30, 50000}, 0); err == nil {
		t.Error("short record accepted")
	}
	if err := tb.Append([]float64{30, 50000, 2}, 5); err == nil {
		t.Error("bad label accepted")
	}
	if err := tb.Append([]float64{30, math.NaN(), 2}, 0); err == nil {
		t.Error("NaN accepted")
	}
	if err := tb.Append([]float64{30, math.Inf(1), 2}, 0); err == nil {
		t.Error("Inf accepted")
	}
	if err := tb.Append([]float64{30, 50000, 2}, 1); err != nil {
		t.Errorf("valid record rejected: %v", err)
	}
	// out-of-domain values are allowed (perturbed data)
	if err := tb.Append([]float64{-500, 50000, 2}, 0); err != nil {
		t.Errorf("out-of-domain record rejected: %v", err)
	}
	if tb.N() != 2 {
		t.Errorf("N = %d", tb.N())
	}
}

func TestAppendCopiesValues(t *testing.T) {
	tb := NewTable(testSchema(t))
	vals := []float64{30, 50000, 2}
	if err := tb.Append(vals, 0); err != nil {
		t.Fatal(err)
	}
	vals[0] = 999
	if tb.Row(0)[0] != 30 {
		t.Error("Append did not copy values")
	}
}

func TestColumnAndClassViews(t *testing.T) {
	tb := NewTable(testSchema(t))
	must := func(vals []float64, label int) {
		t.Helper()
		if err := tb.Append(vals, label); err != nil {
			t.Fatal(err)
		}
	}
	must([]float64{30, 1000, 0}, 0)
	must([]float64{40, 2000, 1}, 1)
	must([]float64{50, 3000, 2}, 0)

	col := tb.Column(0)
	if len(col) != 3 || col[0] != 30 || col[2] != 50 {
		t.Errorf("Column = %v", col)
	}
	vals, idx := tb.ColumnForClass(0, 0)
	if len(vals) != 2 || vals[0] != 30 || vals[1] != 50 || idx[0] != 0 || idx[1] != 2 {
		t.Errorf("ColumnForClass = %v, %v", vals, idx)
	}
	counts := tb.ClassCounts()
	if counts[0] != 2 || counts[1] != 1 {
		t.Errorf("ClassCounts = %v", counts)
	}
}

func TestCloneIsDeep(t *testing.T) {
	tb := NewTable(testSchema(t))
	_ = tb.Append([]float64{30, 1000, 0}, 0)
	c := tb.Clone()
	c.SetValue(0, 0, 77)
	if tb.Row(0)[0] != 30 {
		t.Error("Clone aliases original")
	}
}

func TestSubset(t *testing.T) {
	tb := NewTable(testSchema(t))
	for i := 0; i < 5; i++ {
		_ = tb.Append([]float64{float64(20 + i), 1000, 0}, i%2)
	}
	sub, err := tb.Subset([]int{4, 0})
	if err != nil {
		t.Fatal(err)
	}
	if sub.N() != 2 || sub.Row(0)[0] != 24 || sub.Row(1)[0] != 20 {
		t.Errorf("Subset wrong: %v", sub.rows)
	}
	if _, err := tb.Subset([]int{99}); err == nil {
		t.Error("out-of-range subset accepted")
	}
}

func TestNewTableFromDense(t *testing.T) {
	s := MustSchema([]Attribute{NumericAttr("x", 0, 10), NumericAttr("y", 0, 10)}, []string{"a", "b"})
	tb, err := NewTableFromDense(s, []float64{1, 2, 3, 4, 5, 6}, []int{0, 1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if tb.N() != 3 || tb.Row(1)[0] != 3 || tb.Row(2)[1] != 6 || tb.Label(1) != 1 {
		t.Fatalf("dense table misassembled: %v", tb)
	}
	// appending afterwards must not clobber neighbouring rows
	if err := tb.Append([]float64{7, 8}, 0); err != nil {
		t.Fatal(err)
	}
	if tb.Row(2)[0] != 5 || tb.Row(3)[0] != 7 {
		t.Fatal("append after dense construction corrupted rows")
	}
	if _, err := NewTableFromDense(s, []float64{1, 2, 3}, []int{0, 1}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewTableFromDense(s, []float64{1, math.NaN()}, []int{0}); err == nil {
		t.Error("NaN accepted")
	}
	if _, err := NewTableFromDense(s, []float64{1, 2}, []int{5}); err == nil {
		t.Error("out-of-range label accepted")
	}
}
