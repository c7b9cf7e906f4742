package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"
)

// Segment file layout: a segment is Count fixed-width little-endian values
// followed by the CRC-32C (Castagnoli) of those payload bytes, so its Size is
// Count×width+4. Floats are stored as their 8-byte IEEE 754 bits, integers as
// 4-byte uint32.
const (
	floatWidth = 8
	intWidth   = 4
	crcLen     = 4
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Segment locates one column segment inside a segment file: the byte range
// of its payload and checksum and the number of values it holds. Indices live
// in memory for the lifetime of the spill (segment files are scratch of one
// training run, not an interchange format).
type Segment struct {
	// Off and Size bound the segment in the file.
	Off, Size int64
	// Count is the number of values in the segment.
	Count int
}

// SegmentWriter spills a column to a file as a sequence of checksummed,
// fixed-width segments — the out-of-core counterpart of a memory-resident
// attribute list. Floats are written as their IEEE 754 bits, so a spilled
// value re-reads bit-identically (NaN payloads and signed zeros included),
// which is what lets the out-of-core training path reproduce the in-memory
// path byte for byte.
type SegmentWriter struct {
	w     io.Writer
	off   int64
	index []Segment
	buf   []byte
}

// NewSegmentWriter starts a segment file on w (typically an *os.File).
func NewSegmentWriter(w io.Writer) *SegmentWriter {
	return &SegmentWriter{w: w}
}

// Segments returns the number of segments written so far.
func (w *SegmentWriter) Segments() int { return len(w.index) }

// N returns the total number of values written so far.
func (w *SegmentWriter) N() int {
	n := 0
	for _, s := range w.index {
		n += s.Count
	}
	return n
}

// Index returns the segment directory needed to read the file back. The
// returned slice is a copy and stays valid after further writes.
func (w *SegmentWriter) Index() []Segment {
	return append([]Segment(nil), w.index...)
}

// WriteFloats appends one segment of float64 values.
func (w *SegmentWriter) WriteFloats(vals []float64) error {
	w.buf = w.buf[:0]
	for _, v := range vals {
		w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
	}
	return w.writeSegment(len(vals))
}

// WriteInts appends one segment of integer values, each of which must fit
// the 4-byte width on disk: [0, math.MaxUint32].
func (w *SegmentWriter) WriteInts(vals []int) error {
	w.buf = w.buf[:0]
	for i, v := range vals {
		if v < 0 || uint64(v) > math.MaxUint32 {
			return fmt.Errorf("stream: segment %d value %d is %d, outside [0,%d]", len(w.index), i, v, uint32(math.MaxUint32))
		}
		w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(v))
	}
	return w.writeSegment(len(vals))
}

// writeSegment seals the payload in w.buf with its checksum, appends it to
// the file, and records it in the index.
func (w *SegmentWriter) writeSegment(count int) error {
	if count == 0 {
		return fmt.Errorf("stream: refusing to write an empty segment")
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(w.buf, castagnoli))
	if _, err := w.w.Write(w.buf); err != nil {
		return fmt.Errorf("stream: writing segment %d: %w", len(w.index), err)
	}
	size := int64(len(w.buf))
	w.index = append(w.index, Segment{Off: w.off, Size: size, Count: count})
	w.off += size
	return nil
}

// SegmentReader reads individual segments of a file written by
// SegmentWriter, in any order, decoding into caller storage. Reads are
// stateless, so a reader is safe for concurrent use as long as the
// underlying ReaderAt is (an *os.File is).
type SegmentReader struct {
	r     io.ReaderAt
	index []Segment
}

// NewSegmentReader wraps a written segment file and the index its writer
// produced.
func NewSegmentReader(r io.ReaderAt, index []Segment) *SegmentReader {
	return &SegmentReader{r: r, index: index}
}

// Segments returns the number of segments in the file.
func (r *SegmentReader) Segments() int { return len(r.index) }

// Count returns the number of values in segment seg.
func (r *SegmentReader) Count(seg int) int { return r.index[seg].Count }

// N returns the total number of values across all segments.
func (r *SegmentReader) N() int {
	n := 0
	for _, s := range r.index {
		n += s.Count
	}
	return n
}

// ReadFloats decodes float64 segment seg into dst, which must hold exactly
// Count(seg) values. On success the values are bit-identical to what
// WriteFloats was given; on error dst's contents are unspecified.
func (r *SegmentReader) ReadFloats(seg int, dst []float64) error {
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst)*floatWidth)
	if err := r.readSegment(seg, len(dst), floatWidth, raw); err != nil {
		return err
	}
	// In place: value i is loaded from raw before its own bytes are stored.
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*floatWidth:]))
	}
	return nil
}

// ReadInts decodes integer segment seg into dst, which must hold exactly
// Count(seg) values, at the 4-byte width the segment stores. On error dst's
// contents are unspecified.
func (r *SegmentReader) ReadInts(seg int, dst []uint32) error {
	raw := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(dst))), len(dst)*intWidth)
	if err := r.readSegment(seg, len(dst), intWidth, raw); err != nil {
		return err
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(raw[i*intWidth:])
	}
	return nil
}

// readSegment checks that segment seg holds n values of the given width —
// which also rejects decoding a segment as the wrong type, since the widths
// differ — then reads its payload bytes into raw, the caller's destination
// viewed as n×width bytes, and verifies the checksum. The values are still
// little-endian on return; the caller decodes them in place. It allocates
// nothing, whatever the file holds.
func (r *SegmentReader) readSegment(seg, n, width int, raw []byte) error {
	if seg < 0 || seg >= len(r.index) {
		return fmt.Errorf("stream: segment %d outside file of %d segments", seg, len(r.index))
	}
	s := r.index[seg]
	if n != s.Count {
		return fmt.Errorf("stream: segment %d holds %d values, destination has room for %d", seg, s.Count, n)
	}
	if n == 0 {
		return fmt.Errorf("stream: segment %d is empty", seg)
	}
	if want := int64(n)*int64(width) + crcLen; s.Size != want {
		return fmt.Errorf("stream: segment %d is %d bytes, %d values of %d bytes need %d", seg, s.Size, n, width, want)
	}
	// The checksum goes through the head of raw before the payload overwrites
	// it: raw has room for exactly the payload, and a separate buffer handed
	// to ReadAt would escape to the heap.
	payload := s.Size - crcLen
	if err := r.readAt(seg, raw[:crcLen], s.Off+payload); err != nil {
		return err
	}
	stored := binary.LittleEndian.Uint32(raw)
	if err := r.readAt(seg, raw, s.Off); err != nil {
		return err
	}
	if sum := crc32.Checksum(raw, castagnoli); sum != stored {
		return fmt.Errorf("stream: segment %d checksum %08x, payload sums to %08x: the spill is corrupt", seg, stored, sum)
	}
	return nil
}

// readAt fills b from the file at off, reporting a short read as an error
// against segment seg.
func (r *SegmentReader) readAt(seg int, b []byte, off int64) error {
	if got, err := r.r.ReadAt(b, off); got < len(b) {
		if err == nil || err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("stream: reading segment %d: %w", seg, err)
	}
	return nil
}
