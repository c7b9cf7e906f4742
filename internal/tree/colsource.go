package tree

import (
	"container/list"
	"fmt"
	"sync"

	"ppdm/internal/stream"
)

// DefaultCacheSegments is the segment-cache budget of a SpillSource when the
// caller passes 0: at SegLen values of 4 bytes each, 256 segments keep at
// most ~8 MiB of decoded column data resident however large the training
// set is.
const DefaultCacheSegments = 256

// SpillSource is a ColumnSource whose attribute lists reside in on-disk
// segment files of checksummed 4-byte interval indices (written by
// stream.SegmentWriter on the SegLen grid). Segments decode on demand into a
// bounded, shared LRU cache, so tree growth over an arbitrarily large
// training set holds only the class list, the live rowID lists, and the
// cache budget in memory — the out-of-core half of the SPRINT design. A
// segment that fails its checksum or holds an out-of-range index fails
// growth with an error.
//
// The parallel split search reads different attributes concurrently;
// SpillSource synchronizes the cache internally and performs stateless
// reads through stream.SegmentReader, so no external locking is needed.
type SpillSource struct {
	lists  []*spillList
	bins   []int
	labels []int
	k      int
}

// NewSpillSource wraps one segment reader per attribute. Every reader must
// hold exactly len(labels) values in SegLen-sized segments (the last may be
// shorter); bin counts and labels are validated as in NewStaticSource.
// cacheSegments bounds the decoded segments held across all attributes
// (0 = DefaultCacheSegments).
func NewSpillSource(readers []*stream.SegmentReader, bins []int, labels []int, numClasses, cacheSegments int) (*SpillSource, error) {
	if len(readers) == 0 {
		return nil, errNoColumns
	}
	if len(readers) != len(bins) {
		return nil, fmt.Errorf("tree: %d columns but %d bin counts", len(readers), len(bins))
	}
	if numClasses < 2 {
		return nil, fmt.Errorf("tree: need >= 2 classes, got %d", numClasses)
	}
	n := len(labels)
	for i, l := range labels {
		if l < 0 || l >= numClasses {
			return nil, fmt.Errorf("tree: label %d of row %d outside [0,%d)", l, i, numClasses)
		}
	}
	if cacheSegments <= 0 {
		cacheSegments = DefaultCacheSegments
	}
	cache := &segCache{capacity: cacheSegments, entries: make(map[segKey]*list.Element)}
	s := &SpillSource{bins: bins, labels: labels, k: numClasses}
	wantSegs := (n + SegLen - 1) / SegLen
	for a, r := range readers {
		if bins[a] < 1 {
			return nil, fmt.Errorf("tree: attribute %d has %d bins", a, bins[a])
		}
		if r.N() != n {
			return nil, fmt.Errorf("tree: column %d holds %d values, labels have %d", a, r.N(), n)
		}
		if r.Segments() != wantSegs {
			return nil, fmt.Errorf("tree: column %d has %d segments, the SegLen grid needs %d", a, r.Segments(), wantSegs)
		}
		for seg := 0; seg < r.Segments(); seg++ {
			want := SegLen
			if seg == wantSegs-1 {
				want = n - seg*SegLen
			}
			if r.Count(seg) != want {
				return nil, fmt.Errorf("tree: column %d segment %d holds %d values, grid needs %d", a, seg, r.Count(seg), want)
			}
		}
		s.lists = append(s.lists, &spillList{r: r, attr: a, bins: bins[a], n: n, cache: cache})
	}
	return s, nil
}

// Len implements Source.
func (s *SpillSource) Len() int { return len(s.labels) }

// NumAttrs implements Source.
func (s *SpillSource) NumAttrs() int { return len(s.lists) }

// Bins implements Source.
func (s *SpillSource) Bins(attr int) int { return s.bins[attr] }

// NumClasses implements Source.
func (s *SpillSource) NumClasses() int { return s.k }

// Label implements Source.
func (s *SpillSource) Label(row int) int { return s.labels[row] }

// AttrList implements ColumnSource.
func (s *SpillSource) AttrList(attr int) AttrList { return s.lists[attr] }

// Labels implements ColumnSource.
func (s *SpillSource) Labels() []int { return s.labels }

// Values implements Source for interface completeness only: the columnar
// engine never routes a ColumnSource through the row-pull path. It reads
// through the same segment cache and panics on storage failure, since the
// signature has no error channel; any caller hitting this path with a
// failing disk has already lost the training run.
func (s *SpillSource) Values(attr int, rows []int, span Span, dst []int) []int {
	if cap(dst) < len(rows) {
		dst = make([]int, len(rows))
	}
	out := dst[:len(rows)]
	list := s.lists[attr]
	for i, r := range rows {
		seg, err := list.Segment(r / SegLen)
		if err != nil {
			panic(fmt.Sprintf("tree: reading spilled column %d: %v", attr, err))
		}
		v := int(seg[r%SegLen])
		if v < span.Lo {
			v = span.Lo
		}
		if v > span.Hi {
			v = span.Hi
		}
		out[i] = v
	}
	return out
}

// spillList is the AttrList view of one spilled column.
type spillList struct {
	r     *stream.SegmentReader
	attr  int
	bins  int
	n     int
	cache *segCache
}

// Len implements AttrList.
func (l *spillList) Len() int { return l.n }

// Segment implements AttrList: cache hit or decode-and-insert. A slice
// handed out stays valid even if evicted (eviction only drops the cache's
// reference; the garbage collector reclaims it once the caller moves on),
// so the budget bounds resident segments up to the readers in flight.
func (l *spillList) Segment(seg int) ([]uint32, error) {
	lo := seg * SegLen
	if seg < 0 || lo >= l.n {
		return nil, fmt.Errorf("tree: segment %d outside spilled column of %d values", seg, l.n)
	}
	return l.cache.get(segKey{attr: l.attr, seg: seg}, func() ([]uint32, error) {
		vals := make([]uint32, min(SegLen, l.n-lo))
		if err := l.r.ReadInts(seg, vals); err != nil {
			return nil, err
		}
		for i, v := range vals {
			if v >= uint32(l.bins) {
				return nil, fmt.Errorf("tree: spilled value %d of attribute %d row %d outside [0,%d)",
					v, l.attr, lo+i, l.bins)
			}
		}
		return vals, nil
	})
}

// segKey addresses one cached segment.
type segKey struct{ attr, seg int }

// segCache is a mutex-guarded LRU over decoded segments, shared by all
// attributes of one SpillSource so hot columns can claim more of the budget
// than cold ones.
type segCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[segKey]*list.Element
	order    list.List // front = most recently used; values are *segEntry
}

type segEntry struct {
	key  segKey
	vals []uint32
}

// get returns the cached segment or loads it with load. Concurrent misses
// on the same key may both load; the duplicate work is harmless (identical
// data) and cheaper than holding the lock across a disk read.
func (c *segCache) get(key segKey, load func() ([]uint32, error)) ([]uint32, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		vals := el.Value.(*segEntry).vals
		c.mu.Unlock()
		return vals, nil
	}
	c.mu.Unlock()

	vals, err := load()
	if err != nil {
		return nil, err
	}

	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		// Another goroutine raced the load; keep its copy.
		c.order.MoveToFront(el)
		vals = el.Value.(*segEntry).vals
	} else {
		c.entries[key] = c.order.PushFront(&segEntry{key: key, vals: vals})
		for len(c.entries) > c.capacity {
			oldest := c.order.Back()
			c.order.Remove(oldest)
			delete(c.entries, oldest.Value.(*segEntry).key)
		}
	}
	c.mu.Unlock()
	return vals, nil
}
