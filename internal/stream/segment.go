package stream

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"
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
	return r.readSegment(seg, len(dst), floatWidth, func(at int, p []byte) {
		out := dst[at : at+len(p)/floatWidth]
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[i*floatWidth:]))
		}
	})
}

// ReadInts decodes integer segment seg into dst, which must hold exactly
// Count(seg) values, at the 4-byte width the segment stores. On error dst's
// contents are unspecified.
func (r *SegmentReader) ReadInts(seg int, dst []uint32) error {
	return r.readSegment(seg, len(dst), intWidth, func(at int, p []byte) {
		out := dst[at : at+len(p)/intWidth]
		for i := range out {
			out[i] = binary.LittleEndian.Uint32(p[i*intWidth:])
		}
	})
}

// chunkLen is the read granularity of readSegment. It is a multiple of every
// value width.
const chunkLen = 64 << 10

var chunkPool = sync.Pool{New: func() any { return new([chunkLen]byte) }}

// readSegment checks that segment seg holds n values of the given width —
// which also rejects decoding a segment as the wrong type, since the widths
// differ — then streams its bytes through a pooled chunk buffer, handing
// each run of whole payload values to decode (at is the index of its first
// value), and verifies the trailing checksum. It allocates nothing, whatever
// the file holds.
func (r *SegmentReader) readSegment(seg, n, width int, decode func(at int, p []byte)) error {
	if seg < 0 || seg >= len(r.index) {
		return fmt.Errorf("stream: segment %d outside file of %d segments", seg, len(r.index))
	}
	s := r.index[seg]
	if n != s.Count {
		return fmt.Errorf("stream: segment %d holds %d values, destination has room for %d", seg, s.Count, n)
	}
	if want := int64(n)*int64(width) + crcLen; s.Size != want {
		return fmt.Errorf("stream: segment %d is %d bytes, %d values of %d bytes need %d", seg, s.Size, n, width, want)
	}
	buf := chunkPool.Get().(*[chunkLen]byte)
	defer chunkPool.Put(buf)
	// Chunks start at multiples of chunkLen and the payload length is a
	// multiple of the width, so neither a value nor the checksum straddles
	// two chunks: the checksum is the last crcLen bytes of the last chunk.
	payload := s.Size - crcLen
	var sum uint32
	var tail []byte
	for lo := int64(0); lo < s.Size; lo += chunkLen {
		b := buf[:min(chunkLen, s.Size-lo)]
		if got, err := r.r.ReadAt(b, s.Off+lo); got < len(b) {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return fmt.Errorf("stream: reading segment %d: %w", seg, err)
		}
		if lo+int64(len(b)) > payload {
			b, tail = b[:payload-lo], b[payload-lo:]
		}
		sum = crc32.Update(sum, castagnoli, b)
		decode(int(lo)/width, b)
	}
	if stored := binary.LittleEndian.Uint32(tail); stored != sum {
		return fmt.Errorf("stream: segment %d checksum %08x, payload sums to %08x: the spill is corrupt", seg, stored, sum)
	}
	return nil
}
