package stream

import (
	"compress/gzip"
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ppdm/internal/dataset"
)

// Writer encodes record batches as CSV: a header row of attribute names plus
// "class", then one row per record, each value in the shortest form that
// parses back to the same float64. NewCSVWriter writes the CSV plain;
// NewWriter writes the same CSV under a gzip layer, so `gunzip` of a
// gzipped stream equals the plain file byte for byte.
type Writer struct {
	schema *dataset.Schema
	gz     *gzip.Writer // nil for plain CSV
	cw     *csv.Writer
	row    []string
	n      int
}

// NewCSVWriter starts a plain CSV record stream on w and writes the header.
// Close must be called to flush; it does not close w.
func NewCSVWriter(w io.Writer, s *dataset.Schema) (*Writer, error) {
	return newWriter(w, nil, s)
}

// NewWriter starts a gzipped CSV record stream on w and writes the header.
// Close must be called to flush; it does not close w.
func NewWriter(w io.Writer, s *dataset.Schema) (*Writer, error) {
	gz := gzip.NewWriter(w)
	return newWriter(gz, gz, s)
}

// newWriter writes the CSV header to w; gz, when set, is the gzip layer w
// writes through.
func newWriter(w io.Writer, gz *gzip.Writer, s *dataset.Schema) (*Writer, error) {
	cw := csv.NewWriter(w)
	header := make([]string, 0, s.NumAttrs()+1)
	for _, a := range s.Attrs {
		header = append(header, a.Name)
	}
	header = append(header, "class")
	if err := cw.Write(header); err != nil {
		return nil, fmt.Errorf("stream: writing header: %w", err)
	}
	return &Writer{schema: s, gz: gz, cw: cw, row: make([]string, len(header))}, nil
}

// N returns the number of records written so far.
func (w *Writer) N() int { return w.n }

// WriteBatch appends one batch. Batches must arrive in stream order; the
// writer validates that b.Start matches the records written so far.
func (w *Writer) WriteBatch(b *Batch) error {
	if b.Start != w.n {
		return fmt.Errorf("stream: batch starts at %d, writer has %d records", b.Start, w.n)
	}
	if err := CheckBatch(w.schema, b); err != nil {
		return err
	}
	for i := 0; i < b.N(); i++ {
		for j, v := range b.Row(i) {
			w.row[j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		w.row[len(w.row)-1] = w.schema.Classes[b.Labels[i]]
		if err := w.cw.Write(w.row); err != nil {
			return fmt.Errorf("stream: writing record %d: %w", b.Start+i, err)
		}
	}
	w.n += b.N()
	return nil
}

// Close flushes the CSV buffer and, for a gzipped stream, the gzip layer.
// It does not close the underlying writer.
func (w *Writer) Close() error {
	w.cw.Flush()
	if err := w.cw.Error(); err != nil {
		return fmt.Errorf("stream: flushing: %w", err)
	}
	if w.gz == nil {
		return nil
	}
	return w.gz.Close()
}

// Reader decodes a CSV record stream in the Writer's format, re-chunking it
// into batches of the requested size. NewCSVReader reads plain CSV and
// NewReader gzipped CSV. It implements Source.
type Reader struct {
	schema *dataset.Schema
	gz     *gzip.Reader // nil for plain CSV
	cr     *csv.Reader
	batch  int
	next   int
	done   bool
}

// NewCSVReader opens a plain CSV record stream and validates its header
// against the schema: the schema's attribute names in order, then "class".
// batch is the records-per-batch granularity of Next (0 =
// DefaultBatchSize); it need not match the writer's batching.
func NewCSVReader(r io.Reader, s *dataset.Schema, batch int) (*Reader, error) {
	return newReader(r, nil, s, batch)
}

// NewReader is NewCSVReader for a gzipped CSV record stream.
func NewReader(r io.Reader, s *dataset.Schema, batch int) (*Reader, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("stream: opening gzip stream: %w", err)
	}
	return newReader(gz, gz, s, batch)
}

// newReader reads and validates the CSV header from r; gz, when set, is the
// gzip layer r reads through.
func newReader(r io.Reader, gz *gzip.Reader, s *dataset.Schema, batch int) (*Reader, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = s.NumAttrs() + 1
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("stream: reading header: %w", err)
	}
	for j, a := range s.Attrs {
		if header[j] != a.Name {
			return nil, fmt.Errorf("stream: column %d is %q, schema expects %q", j, header[j], a.Name)
		}
	}
	if header[len(header)-1] != "class" {
		return nil, fmt.Errorf("stream: last column is %q, expected \"class\"", header[len(header)-1])
	}
	return &Reader{schema: s, gz: gz, cr: cr, batch: BatchSize(batch)}, nil
}

// Schema implements Source.
func (r *Reader) Schema() *dataset.Schema { return r.schema }

// N returns the number of records read so far.
func (r *Reader) N() int { return r.next }

// Next implements Source: it reads up to the configured batch size of
// records and returns them, or (nil, io.EOF) when the stream is exhausted.
func (r *Reader) Next() (*Batch, error) {
	if r.done {
		return nil, io.EOF
	}
	na := r.schema.NumAttrs()
	// Cap the upfront allocation: the batch size is caller-supplied and may
	// vastly exceed the records actually in the file; append grows beyond
	// the cap if the records really arrive.
	prealloc := r.batch
	if prealloc > 4*DefaultBatchSize {
		prealloc = 4 * DefaultBatchSize
	}
	b := &Batch{
		Start:  r.next,
		Values: make([]float64, 0, prealloc*na),
		Labels: make([]int, 0, prealloc),
	}
	for len(b.Labels) < r.batch {
		row, err := r.cr.Read()
		if err == io.EOF {
			r.done = true
			break
		}
		if err != nil {
			return nil, fmt.Errorf("stream: reading record %d: %w", r.next+len(b.Labels), err)
		}
		for j := 0; j < na; j++ {
			v, err := strconv.ParseFloat(row[j], 64)
			if err != nil {
				return nil, fmt.Errorf("stream: record %d attribute %q: %w",
					r.next+len(b.Labels), r.schema.Attrs[j].Name, err)
			}
			b.Values = append(b.Values, v)
		}
		label := r.schema.ClassIndex(row[na])
		if label < 0 {
			return nil, fmt.Errorf("stream: record %d has unknown class %q", r.next+len(b.Labels), row[na])
		}
		b.Labels = append(b.Labels, label)
	}
	if len(b.Labels) == 0 {
		return nil, io.EOF
	}
	if err := CheckBatch(r.schema, b); err != nil {
		return nil, err
	}
	r.next += len(b.Labels)
	return b, nil
}

// Close releases the gzip layer of a gzipped stream; for plain CSV it does
// nothing. It does not close the underlying reader.
func (r *Reader) Close() error {
	if r.gz == nil {
		return nil
	}
	return r.gz.Close()
}
