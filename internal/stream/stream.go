package stream

import (
	"fmt"
	"io"
	"math"

	"ppdm/internal/dataset"
)

// DefaultBatchSize is the record-batch length used when a caller passes a
// batch size of 0. It is a multiple of the pipeline's chunk sizes
// (synth.GenChunk, noise.PerturbChunk), so default-sized batches decompose
// into whole chunks and parallelize without ragged edges.
const DefaultBatchSize = 8192

// BatchSize resolves a batch-size knob: values <= 0 mean DefaultBatchSize.
func BatchSize(n int) int {
	if n > 0 {
		return n
	}
	return DefaultBatchSize
}

// Batch is one run of consecutive records of a streamed table. Values is
// row-major (N·NumAttrs); Labels holds one class code per record. Start is
// the global index of the first record — stages that derive chunk-grid
// substreams key off it.
type Batch struct {
	Start  int
	Values []float64
	Labels []int
}

// N returns the number of records in the batch.
func (b *Batch) N() int { return len(b.Labels) }

// NumAttrs returns the number of attributes per record; 0 for an empty
// batch.
func (b *Batch) NumAttrs() int {
	if len(b.Labels) == 0 {
		return 0
	}
	return len(b.Values) / len(b.Labels)
}

// Row returns record i's values (0 <= i < N). The slice aliases the batch's
// storage.
func (b *Batch) Row(i int) []float64 {
	na := b.NumAttrs()
	return b.Values[i*na : (i+1)*na]
}

// Source yields successive record batches of one logical table, in strict
// global order: the first batch has Start 0 and each batch starts where the
// previous one ended. Next returns io.EOF after the last batch. Ownership of
// a returned batch transfers to the caller — sources must not reuse its
// storage, and transforming stages may mutate it in place.
type Source interface {
	// Schema describes the streamed records.
	Schema() *dataset.Schema
	// Next returns the next batch, or (nil, io.EOF) at end of stream.
	Next() (*Batch, error)
}

// CheckBatch validates one batch against a schema: consistent slice lengths,
// in-range labels, finite values. Perturbed values outside an attribute's
// declared domain are accepted, as in dataset.Table.Append.
func CheckBatch(s *dataset.Schema, b *Batch) error {
	if b == nil {
		return fmt.Errorf("stream: nil batch")
	}
	na := s.NumAttrs()
	if len(b.Values) != len(b.Labels)*na {
		return fmt.Errorf("stream: batch has %d values for %d records of %d attributes",
			len(b.Values), len(b.Labels), na)
	}
	for _, l := range b.Labels {
		if l < 0 || l >= s.NumClasses() {
			return fmt.Errorf("stream: label %d out of range [0,%d)", l, s.NumClasses())
		}
	}
	for j, v := range b.Values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("stream: record %d attribute %q has non-finite value %v",
				b.Start+j/na, s.Attrs[j%na].Name, v)
		}
	}
	return nil
}

// tableSource streams an in-memory table.
type tableSource struct {
	t     *dataset.Table
	batch int
	next  int
}

// FromTable returns a Source that yields the table's records in order, batch
// records at a time (0 = DefaultBatchSize). Batches copy the table's values,
// so downstream stages may mutate them freely.
func FromTable(t *dataset.Table, batch int) Source {
	return &tableSource{t: t, batch: BatchSize(batch)}
}

// Schema implements Source.
func (s *tableSource) Schema() *dataset.Schema { return s.t.Schema() }

// Next implements Source.
func (s *tableSource) Next() (*Batch, error) {
	if s.next >= s.t.N() {
		return nil, io.EOF
	}
	n := s.t.N() - s.next
	if n > s.batch {
		n = s.batch
	}
	na := s.t.Schema().NumAttrs()
	b := &Batch{
		Start:  s.next,
		Values: make([]float64, n*na),
		Labels: make([]int, n),
	}
	for i := 0; i < n; i++ {
		copy(b.Values[i*na:(i+1)*na], s.t.Row(s.next+i))
		b.Labels[i] = s.t.Label(s.next + i)
	}
	s.next += n
	return b, nil
}

// Collect materializes a stream into an in-memory table — the inverse of
// FromTable, used to read a CSV file into a table and by callers that need
// random access after a streamed transform. It validates batch ordering and
// contents, and rejects a stream without records.
func Collect(src Source) (*dataset.Table, error) {
	s := src.Schema()
	var values []float64
	var labels []int
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if b.Start != len(labels) {
			return nil, fmt.Errorf("stream: batch starts at %d, expected %d", b.Start, len(labels))
		}
		if err := CheckBatch(s, b); err != nil {
			return nil, err
		}
		values = append(values, b.Values...)
		labels = append(labels, b.Labels...)
	}
	if len(labels) == 0 {
		return nil, fmt.Errorf("stream: empty stream")
	}
	return dataset.NewTableFromDense(s, values, labels)
}

// Copy drains src into w and returns the number of records written.
func Copy(w *Writer, src Source) (int, error) {
	n := 0
	for {
		b, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		if err := w.WriteBatch(b); err != nil {
			return n, err
		}
		n += b.N()
	}
}
