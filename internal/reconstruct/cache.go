package reconstruct

import (
	"container/list"
	"sync"

	"ppdm/internal/noise"
)

// weightKey identifies one banded transition-weight matrix. Entries depend
// only on the noise model, the algorithm, the shared interval width, the
// index-difference geometry (domain interval count, observation-grid offset
// and length), and the band radius — never on where the domain sits on the
// real line — so two reconstructions with the same key compute
// bitwise-identical matrices even for translated partitions (e.g. the
// per-node sub-partitions of Local-mode training, which reuse the root
// partition's width at varying offsets).
type weightKey struct {
	model  noise.Model
	alg    Algorithm
	width  float64
	k      int
	lowIdx int
	nObs   int
	radius int
}

// DefaultWeightCacheEntries bounds the shared transition-matrix cache.
// Global/ByClass training over a realistic schema touches a few dozen
// distinct root geometries, and Local training a few hundred node
// geometries more: the benchmark's four 20k-record Local tables, seeds 1–5,
// touch 302–356 of them (about 10–11 MB of matrices) beside 34 root ones.
// The bound keeps them all resident across trainings and only exists to
// keep pathological callers (scans over thousands of partitions) from
// growing the cache without limit.
const DefaultWeightCacheEntries = 512

// CacheStats reports the behaviour of one WeightCache.
type CacheStats struct {
	// Hits and Misses count lookups since the cache (or its counters) was
	// created; evictions do not reset them.
	Hits, Misses uint64
	// Entries is the number of matrices currently resident.
	Entries int
}

// WeightCache is a bounded LRU of banded transition matrices. The shared
// instance serves all reconstructions by default: Global/ByClass training
// reconstructs every attribute × class with the same geometry family, Local
// training's node sub-partitions repeat their geometries across nodes,
// subtrees and trainings, and the eval scenarios repeat those trainings. A
// caller that must not share matrices (a cold-cache measurement) passes its
// own instance in Config.Cache.
//
// A WeightCache is safe for concurrent use. Cached matrices are shared and
// treated as read-only by every consumer.
type WeightCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[weightKey]*list.Element
	order    list.List // front = most recently used; values are *weightEntry
	hits     uint64
	misses   uint64
}

type weightEntry struct {
	key weightKey
	w   *bandedWeights
}

// NewWeightCache returns an empty cache bounded to capacity matrices
// (values < 1 use DefaultWeightCacheEntries).
func NewWeightCache(capacity int) *WeightCache {
	if capacity < 1 {
		capacity = DefaultWeightCacheEntries
	}
	return &WeightCache{capacity: capacity, entries: make(map[weightKey]*list.Element)}
}

// get returns the cached matrix for key, counting the lookup.
func (c *WeightCache) get(key weightKey) (*bandedWeights, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.entries[key]
	if !found {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*weightEntry).w, true
}

// put inserts a freshly computed matrix, evicting least-recently-used
// entries beyond the capacity. Concurrent misses on one key may both
// compute; the loser's insert keeps the winner's (bitwise identical) matrix.
func (c *WeightCache) put(key weightKey, w *bandedWeights) *bandedWeights {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*weightEntry).w
	}
	c.entries[key] = c.order.PushFront(&weightEntry{key: key, w: w})
	for len(c.entries) > c.capacity {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*weightEntry).key)
	}
	return w
}

// Stats returns the cache's lookup counters and current size.
func (c *WeightCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Entries: len(c.entries)}
}

// Reset empties the cache and zeroes its counters. It exists for tests and
// cold-cache benchmarking.
func (c *WeightCache) Reset() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[weightKey]*list.Element)
	c.order.Init()
	c.hits, c.misses = 0, 0
}

// sharedWeightCache serves every reconstruction that does not bring its own
// cache (Config.Cache).
var sharedWeightCache = NewWeightCache(DefaultWeightCacheEntries)

// SharedWeightCacheStats reports the shared transition-matrix cache's
// counters; tests use it to assert that training paths actually re-hit
// cached geometries.
func SharedWeightCacheStats() CacheStats { return sharedWeightCache.Stats() }

// ResetSharedWeightCache empties the shared cache and zeroes its counters,
// for tests and cold-cache benchmarks.
func ResetSharedWeightCache() { sharedWeightCache.Reset() }

// cacheableModel reports whether the model may participate in the cache.
// Only the library's own immutable value-struct models qualify: they compare
// by value, so equal keys really mean equal matrices. User-supplied models
// are never cached — a pointer-typed model would be keyed by pointer
// identity (stale matrices after mutation), and exotic dynamic types can
// panic as map keys.
func cacheableModel(m noise.Model) bool {
	switch m.(type) {
	case noise.Uniform, noise.Gaussian, noise.Laplace:
		return true
	default:
		return false
	}
}

// transitionWeights returns the banded interaction-weight matrix between
// observation intervals and domain intervals, computing it (in parallel,
// bounded by cfg.Workers) on a cache miss. The returned matrix is shared and
// must be treated as read-only.
func transitionWeights(cfg Config, obs observationGrid) *bandedWeights {
	k := cfg.Partition.K
	width := cfg.Partition.Width()
	radius := min(obs.band, denseRadius(k, obs.lowIdx, len(obs.counts)))

	cache := cfg.Cache
	if cache == nil {
		cache = sharedWeightCache
	}
	cacheable := cacheableModel(cfg.Noise)
	key := weightKey{alg: cfg.Algorithm, width: width, k: k, lowIdx: obs.lowIdx, nObs: len(obs.counts), radius: radius}
	if cacheable {
		key.model = cfg.Noise
		if w, ok := cache.get(key); ok {
			return w
		}
	}

	w := computeWeights(cfg.Noise, cfg.Algorithm, width, k, obs.lowIdx, len(obs.counts), radius, cfg.Workers)
	if cacheable {
		w = cache.put(key, w)
	}
	return w
}
