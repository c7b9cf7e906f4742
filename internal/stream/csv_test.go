package stream

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"ppdm/internal/dataset"
	"ppdm/internal/prng"
)

// writeCSV renders a table as plain CSV through NewCSVWriter.
func writeCSV(t testing.TB, tb *dataset.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := NewCSVWriter(&buf, tb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Copy(w, FromTable(tb, 0)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// readCSV reads a plain CSV table through NewCSVReader and Collect.
func readCSV(raw string, s *dataset.Schema) (*dataset.Table, error) {
	r, err := NewCSVReader(strings.NewReader(raw), s, 0)
	if err != nil {
		return nil, err
	}
	return Collect(r)
}

// csvSchema mixes numeric and categorical attributes.
func csvSchema(t *testing.T) *dataset.Schema {
	t.Helper()
	s, err := dataset.NewSchema(
		[]dataset.Attribute{
			dataset.NumericAttr("age", 20, 80),
			dataset.NumericAttr("salary", 20000, 150000),
			dataset.CategoricalAttr("elevel", 5),
		},
		[]string{"B", "A"},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// sameTable reports whether two tables hold the same labels and values.
func sameTable(a, b *dataset.Table) bool {
	if a.N() != b.N() {
		return false
	}
	for i := 0; i < a.N(); i++ {
		if a.Label(i) != b.Label(i) {
			return false
		}
		for j, v := range a.Row(i) {
			if b.Row(i)[j] != v {
				return false
			}
		}
	}
	return true
}

func TestCSVRoundTrip(t *testing.T) {
	tb := dataset.NewTable(csvSchema(t))
	_ = tb.Append([]float64{30.25, 50000, 2}, 0)
	_ = tb.Append([]float64{45, 149999.5, 4}, 1)

	raw := writeCSV(t, tb)
	if want := "age,salary,elevel,class\n30.25,50000,2,B\n45,149999.5,4,A\n"; string(raw) != want {
		t.Fatalf("CSV\n%s\nwant\n%s", raw, want)
	}
	back, err := readCSV(string(raw), tb.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if !sameTable(back, tb) {
		t.Fatal("round trip changed the table")
	}
}

// Property: CSV round-trips arbitrary finite values exactly.
func TestCSVRoundTripProperty(t *testing.T) {
	schema := dataset.MustSchema(
		[]dataset.Attribute{dataset.NumericAttr("x", -1e6, 1e6), dataset.NumericAttr("y", -1e6, 1e6)},
		[]string{"neg", "pos"},
	)
	f := func(seed uint64, nRaw uint8) bool {
		r := prng.New(seed)
		n := int(nRaw%40) + 1
		tb := dataset.NewTable(schema)
		for i := 0; i < n; i++ {
			vals := []float64{r.Uniform(-1e6, 1e6), r.Gaussian(0, 1e4)}
			if err := tb.Append(vals, r.Intn(2)); err != nil {
				return false
			}
		}
		back, err := readCSV(string(writeCSV(t, tb)), schema)
		return err == nil && sameTable(back, tb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	s := csvSchema(t)
	cases := []struct {
		name, in string
	}{
		{"empty", ""},
		{"header only", "age,salary,elevel,class\n"},
		{"bad header", "foo,salary,elevel,class\n"},
		{"missing class col", "age,salary,elevel,notclass\n"},
		{"bad float", "age,salary,elevel,class\nxyz,1,2,A\n"},
		{"unknown class", "age,salary,elevel,class\n30,1,2,Z\n"},
		{"short row", "age,salary,elevel,class\n30,1,A\n"},
		{"nan value", "age,salary,elevel,class\nNaN,1,2,A\n"},
	}
	for _, c := range cases {
		if _, err := readCSV(c.in, s); err == nil {
			t.Errorf("%s: read succeeded, want error", c.name)
		}
	}
}
