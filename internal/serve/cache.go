package serve

import (
	"container/list"
	"sync"
)

// lru is a bounded, mutex-guarded least-recently-used map from cache key to
// predicted class. One instance hangs off each Model snapshot, so entries
// can never outlive the parameters that produced them — hot reload swaps
// the whole snapshot and the old cache is garbage with it.
//
// A single mutex is deliberate: the critical section is a map probe plus a
// list splice, orders of magnitude cheaper than the tree walk or log-sum it
// short-circuits, and the micro-batcher already serializes the bulk lookup
// path per batch.
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recent; values are *lruEntry
	items map[string]*list.Element

	hits   int64
	misses int64
}

// lruEntry is one cached (discretized record → class) pair.
type lruEntry struct {
	key   string
	class int
}

// newLRU returns an empty cache holding at most cap entries (cap > 0).
func newLRU(cap int) *lru {
	return &lru{cap: cap, order: list.New(), items: make(map[string]*list.Element, cap)}
}

// getBytes returns the cached class for a key rendered into a byte buffer,
// marking it most recently used. The string(key) conversion is written
// directly inside the map index expression, where the compiler elides the
// copy, so probing allocates nothing — which is what keeps the
// steady-state cache-hit path of the micro-batcher off the heap.
func (c *lru) getBytes(key []byte) (int, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[string(key)]
	if !ok {
		c.misses++
		return 0, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).class, true
}

// putBytes inserts or refreshes a key rendered into a byte buffer,
// evicting the least recently used entry when the cache is full. The
// refresh probe uses the allocation-free map index, and the key string is
// materialized only when a new entry is actually inserted (the miss path,
// which allocates for the entry anyway).
func (c *lru) putBytes(key []byte, class int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[string(key)]; ok {
		el.Value.(*lruEntry).class = class
		c.order.MoveToFront(el)
		return
	}
	if c.order.Len() >= c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
	k := string(key)
	c.items[k] = c.order.PushFront(&lruEntry{key: k, class: class})
}

// stats returns the hit/miss counters and current size.
func (c *lru) stats() (hits, misses int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.order.Len()
}
