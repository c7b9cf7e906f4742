package tree

import (
	"errors"
	"fmt"
)

// SegLen is the fixed length of one attribute-list segment. Every column is
// addressed on the same SegLen grid — segment s of any attribute holds the
// interval indices of global rows [s·SegLen, (s+1)·SegLen) — so a node's
// sorted rowID list walks all lists segment-sequentially. The value matches
// stream.DefaultBatchSize so streamed ingestion fills whole segments.
const SegLen = 8192

// AttrList is one attribute's columnar list: the interval index of every
// record in global row order, exposed in fixed-size segments.
//
// The split search reads segments for different attributes concurrently, so
// implementations must be safe for concurrent Segment calls; the returned
// slice must stay valid until the caller moves to another segment (callers
// never retain it longer, so cache-backed implementations may recycle
// storage once the caller is done — in practice: let the garbage collector
// handle eviction, never overwrite a returned slice in place).
type AttrList interface {
	// Len returns the number of values in the list (= number of records).
	Len() int
	// Segment returns the values of rows [seg·SegLen, min((seg+1)·SegLen,
	// Len())). It errors only on storage failure (disk-backed lists).
	Segment(seg int) ([]uint32, error)
}

// MemAttrList is an AttrList over one memory-resident column, stored
// contiguously at 4 bytes per value.
type MemAttrList struct {
	vals []uint32
}

// NewMemAttrList validates a column of interval indices against its bin
// count and packs it into a memory-resident attribute list.
func NewMemAttrList(col []int, bins int) (*MemAttrList, error) {
	if bins < 1 {
		return nil, fmt.Errorf("tree: attribute list needs >= 1 bin, got %d", bins)
	}
	vals := make([]uint32, len(col))
	for i, v := range col {
		if v < 0 || v >= bins {
			return nil, fmt.Errorf("tree: value %d of row %d outside [0,%d)", v, i, bins)
		}
		vals[i] = uint32(v)
	}
	return &MemAttrList{vals: vals}, nil
}

// Len implements AttrList.
func (l *MemAttrList) Len() int { return len(l.vals) }

// Segment implements AttrList by slicing the resident column.
func (l *MemAttrList) Segment(seg int) ([]uint32, error) {
	lo := seg * SegLen
	if seg < 0 || lo >= len(l.vals) {
		return nil, fmt.Errorf("tree: segment %d outside column of %d values", seg, len(l.vals))
	}
	hi := lo + SegLen
	if hi > len(l.vals) {
		hi = len(l.vals)
	}
	return l.vals[lo:hi], nil
}

// bitmap marks rowIDs during node partitioning. It is scratch owned by one
// grow task: parallel subtrees each carry their own, so no two tasks share
// words even though their row sets interleave.
type bitmap []uint64

// newBitmap returns a bitmap covering rows [0, n).
func newBitmap(n int) bitmap { return make(bitmap, (n+63)/64) }

func (b bitmap) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b bitmap) get(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

// clearRows zeroes every word touched by the (ascending) row list, leaving
// the bitmap ready for reuse without an O(n) sweep.
func (b bitmap) clearRows(rows []int) {
	for _, r := range rows {
		b[r>>6] = 0
	}
}

// colCounts accumulates counts[bin·k+class] for the node's records from one
// attribute list. rows must be ascending (they always are: the root is
// 0..n-1 and partitioning preserves order), so each segment is fetched once
// and walked in order. The increments are exact integer additions in
// float64, hence independent of accumulation order.
func colCounts(list AttrList, rows []int, labels []int, k int, counts []float64) error {
	for i := 0; i < len(rows); {
		base := (rows[i] / SegLen) * SegLen
		vals, err := list.Segment(rows[i] / SegLen)
		if err != nil {
			return err
		}
		end := base + SegLen
		for ; i < len(rows) && rows[i] < end; i++ {
			r := rows[i]
			counts[int(vals[r-base])*k+labels[r]]++
		}
	}
	return nil
}

// partitionRows splits a node's rowID list on (attr value <= cut) using the
// winning attribute's list: pass 1 walks the list segment-sequentially and
// marks left-going rows in the bitmap; pass 2 joins the row list against the
// bitmap, preserving row order. This is SPRINT's hash-join of rowIDs with
// the probe table degenerated to a bitmap — every attribute list shares the
// global row order, so one join partitions the node for all attributes at
// once. The bitmap is caller-owned scratch covering all rows; it is returned
// cleared.
func partitionRows(list AttrList, rows []int, cut int, bits bitmap) (left, right []int, err error) {
	nLeft := 0
	for i := 0; i < len(rows); {
		base := (rows[i] / SegLen) * SegLen
		vals, err := list.Segment(rows[i] / SegLen)
		if err != nil {
			return nil, nil, err
		}
		end := base + SegLen
		for ; i < len(rows) && rows[i] < end; i++ {
			r := rows[i]
			if int(vals[r-base]) <= cut {
				bits.set(r)
				nLeft++
			}
		}
	}
	left = make([]int, 0, nLeft)
	right = make([]int, 0, len(rows)-nLeft)
	for _, r := range rows {
		if bits.get(r) {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	bits.clearRows(rows)
	return left, right, nil
}

// errNoColumns guards constructors that require at least one attribute.
var errNoColumns = errors.New("tree: source needs at least one attribute")
