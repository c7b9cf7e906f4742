package dataset

import (
	"fmt"
	"math"

	"ppdm/internal/prng"
)

// Table is an in-memory collection of records sharing one Schema.
// The zero value is not usable; construct with NewTable.
type Table struct {
	schema *Schema
	rows   [][]float64
	labels []int
}

// NewTable returns an empty table over the given schema.
func NewTable(s *Schema) *Table {
	if s == nil {
		panic("dataset: NewTable with nil schema")
	}
	return &Table{schema: s}
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// N returns the number of records.
func (t *Table) N() int { return len(t.rows) }

// Append adds one record. The values slice is copied. It returns an error
// if the record length or label is inconsistent with the schema, or if any
// value is NaN/Inf. Values outside an attribute's declared domain are
// accepted: perturbed records legitimately escape the domain.
func (t *Table) Append(values []float64, label int) error {
	if len(values) != t.schema.NumAttrs() {
		return fmt.Errorf("dataset: record has %d values, schema has %d attributes", len(values), t.schema.NumAttrs())
	}
	if label < 0 || label >= t.schema.NumClasses() {
		return fmt.Errorf("dataset: label %d out of range [0,%d)", label, t.schema.NumClasses())
	}
	for j, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("dataset: attribute %q has non-finite value %v", t.schema.Attrs[j].Name, v)
		}
	}
	t.rows = append(t.rows, append([]float64(nil), values...))
	t.labels = append(t.labels, label)
	return nil
}

// NewTableFromDense builds a table over s from a dense row-major values
// slice (length n·NumAttrs) and n labels, applying the same validation as
// Append. The rows alias values' storage — ownership transfers to the table
// and the caller must not reuse the slice. This is the bulk-ingest path for
// generators that fill a flat buffer in parallel; it performs no per-record
// allocation or copying.
func NewTableFromDense(s *Schema, values []float64, labels []int) (*Table, error) {
	t := NewTable(s)
	nAttrs := s.NumAttrs()
	if len(values) != len(labels)*nAttrs {
		return nil, fmt.Errorf("dataset: %d values for %d records of %d attributes", len(values), len(labels), nAttrs)
	}
	for j, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("dataset: record %d attribute %q has non-finite value %v", j/nAttrs, s.Attrs[j%nAttrs].Name, v)
		}
	}
	for i, l := range labels {
		if l < 0 || l >= s.NumClasses() {
			return nil, fmt.Errorf("dataset: record %d label %d out of range [0,%d)", i, l, s.NumClasses())
		}
	}
	t.rows = make([][]float64, len(labels))
	for i := range t.rows {
		// Full slice expressions cap each row so a later append cannot
		// clobber its neighbour.
		t.rows[i] = values[i*nAttrs : (i+1)*nAttrs : (i+1)*nAttrs]
	}
	t.labels = append([]int(nil), labels...)
	return t, nil
}

// Row returns record i's values. The returned slice aliases the table's
// storage; callers must not modify it (use RowCopy to mutate).
func (t *Table) Row(i int) []float64 { return t.rows[i] }

// RowCopy returns an independent copy of record i's values.
func (t *Table) RowCopy(i int) []float64 {
	return append([]float64(nil), t.rows[i]...)
}

// Label returns record i's class code.
func (t *Table) Label(i int) int { return t.labels[i] }

// SetValue overwrites one cell; used by perturbation, which transforms
// tables in place on copies.
func (t *Table) SetValue(i, j int, v float64) { t.rows[i][j] = v }

// Column returns a copy of column j across all records.
func (t *Table) Column(j int) []float64 {
	out := make([]float64, len(t.rows))
	for i, r := range t.rows {
		out[i] = r[j]
	}
	return out
}

// ColumnForClass returns a copy of column j restricted to records of the
// given class, along with the original row indices of those records.
func (t *Table) ColumnForClass(j, class int) (values []float64, rowIdx []int) {
	n := 0
	for _, l := range t.labels {
		if l == class {
			n++
		}
	}
	values, rowIdx = make([]float64, 0, n), make([]int, 0, n)
	for i, r := range t.rows {
		if t.labels[i] == class {
			values = append(values, r[j])
			rowIdx = append(rowIdx, i)
		}
	}
	return values, rowIdx
}

// ClassCounts returns the number of records of each class.
func (t *Table) ClassCounts() []int {
	counts := make([]int, t.schema.NumClasses())
	for _, l := range t.labels {
		counts[l]++
	}
	return counts
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	c := &Table{
		schema: t.schema,
		rows:   make([][]float64, len(t.rows)),
		labels: append([]int(nil), t.labels...),
	}
	for i, r := range t.rows {
		c.rows[i] = append([]float64(nil), r...)
	}
	return c
}

// Subset returns a new table containing the records at the given indices
// (deep-copied), in order.
func (t *Table) Subset(idx []int) (*Table, error) {
	out := NewTable(t.schema)
	for _, i := range idx {
		if i < 0 || i >= len(t.rows) {
			return nil, fmt.Errorf("dataset: subset index %d out of range [0,%d)", i, len(t.rows))
		}
		if err := out.Append(t.rows[i], t.labels[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Split randomly partitions the table into a training table with
// round(frac·N) records and a test table with the rest, using r for the
// permutation. frac must be in (0, 1).
func (t *Table) Split(frac float64, r *prng.Source) (train, test *Table, err error) {
	if !(frac > 0 && frac < 1) {
		return nil, nil, fmt.Errorf("dataset: split fraction %v not in (0,1)", frac)
	}
	perm := r.Perm(t.N())
	nTrain := int(math.Round(frac * float64(t.N())))
	train, err = t.Subset(perm[:nTrain])
	if err != nil {
		return nil, nil, err
	}
	test, err = t.Subset(perm[nTrain:])
	if err != nil {
		return nil, nil, err
	}
	return train, test, nil
}

// Shuffle permutes the records in place.
func (t *Table) Shuffle(r *prng.Source) {
	r.Shuffle(t.N(), func(i, j int) {
		t.rows[i], t.rows[j] = t.rows[j], t.rows[i]
		t.labels[i], t.labels[j] = t.labels[j], t.labels[i]
	})
}

// CheckDomains verifies that every stored value lies inside its attribute's
// declared domain; used by tests and by callers ingesting untrusted CSV.
func (t *Table) CheckDomains() error {
	for i, r := range t.rows {
		for j, v := range r {
			if !t.schema.Attrs[j].Contains(v) {
				return fmt.Errorf("dataset: record %d attribute %q value %v outside domain", i, t.schema.Attrs[j].Name, v)
			}
		}
	}
	return nil
}
