package reconstruct

import (
	"fmt"
	"testing"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
)

func cachePerturbed(t *testing.T, n int) ([]float64, noise.Model, Partition) {
	t.Helper()
	m, err := noise.GaussianForPrivacy(1.0, 100, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(0, 100, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := prng.New(77)
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = r.Uniform(0, 100) + m.Sample(r)
	}
	return vals, m, part
}

// TestWeightWorkerDeterminism verifies the parallel weight precompute itself:
// the cache is cleared between runs so the Workers=8 pass cannot shortcut
// through the matrix computed by the Workers=1 pass.
func TestWeightWorkerDeterminism(t *testing.T) {
	vals, m, part := cachePerturbed(t, 20000)
	for _, alg := range []Algorithm{Bayes, EM} {
		var ps [2][]float64
		for i, workers := range []int{1, 8} {
			ResetSharedWeightCache()
			res, err := Reconstruct(vals, Config{Partition: part, Noise: m, Algorithm: alg, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = res.P
		}
		for b := range ps[0] {
			if ps[0][b] != ps[1][b] {
				t.Fatalf("%v: bin %d differs between Workers=1 (fresh cache) and Workers=8 (fresh cache)", alg, b)
			}
		}
	}
}

// TestWeightCacheHitAndBypass checks that identical geometries share one
// matrix, that a fresh Config.Cache really bypasses the shared cache with a
// cold, bitwise-identical matrix, and that the hit/miss counters record
// both.
func TestWeightCacheHitAndBypass(t *testing.T) {
	vals, m, part := cachePerturbed(t, 5000)
	ResetSharedWeightCache()
	cfg := Config{Partition: part, Noise: m}
	obs := newObservationGrid(vals, part, m)
	w1 := transitionWeights(cfg, obs)
	w2 := transitionWeights(cfg, obs)
	if w1 != w2 {
		t.Error("second identical reconstruction did not hit the cache")
	}
	st := SharedWeightCacheStats()
	if st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
		t.Errorf("counters after miss+hit: %+v", st)
	}
	cfg.Cache = NewWeightCache(1)
	w3 := transitionWeights(cfg, obs)
	if w3 == w1 {
		t.Error("a fresh Config.Cache still returned the shared cache's matrix")
	}
	if st := SharedWeightCacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("bypassed lookup moved the shared counters: %+v", st)
	}
	if st := cfg.Cache.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Errorf("fresh cache counters after one lookup: %+v", st)
	}
	if len(w1.data) != len(w3.data) {
		t.Fatalf("bypassed matrix has %d entries, cached has %d", len(w3.data), len(w1.data))
	}
	for i := range w1.data {
		if w1.data[i] != w3.data[i] {
			t.Fatal("bypassed matrix differs from cached matrix")
		}
	}
}

// TestWeightCacheLRUBound floods the cache with distinct geometries and
// checks that the LRU keeps the most recent entries resident instead of
// clearing wholesale.
func TestWeightCacheLRUBound(t *testing.T) {
	vals, m, _ := cachePerturbed(t, 200)
	ResetSharedWeightCache()
	n := 2*DefaultWeightCacheEntries + 10
	parts := make([]Partition, n)
	for i := range parts {
		part, err := NewPartition(0, 100+float64(i), 10)
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = part
		if _, err := Reconstruct(vals, Config{Partition: part, Noise: m, MaxIters: 1}); err != nil {
			t.Fatalf("partition %d: %v", i, err)
		}
	}
	st := SharedWeightCacheStats()
	if st.Entries > DefaultWeightCacheEntries {
		t.Errorf("cache holds %d entries, limit is %d", st.Entries, DefaultWeightCacheEntries)
	}
	if st.Entries < DefaultWeightCacheEntries {
		t.Errorf("LRU evicted below capacity: %d < %d", st.Entries, DefaultWeightCacheEntries)
	}
	// The most recently inserted geometries must still be resident: reruns
	// against them produce cache hits, not recomputes.
	before := SharedWeightCacheStats().Hits
	for i := n - DefaultWeightCacheEntries/2; i < n; i++ {
		if _, err := Reconstruct(vals, Config{Partition: parts[i], Noise: m, MaxIters: 1}); err != nil {
			t.Fatal(err)
		}
	}
	gained := SharedWeightCacheStats().Hits - before
	if gained != uint64(DefaultWeightCacheEntries/2) {
		t.Errorf("recent geometries re-hit %d times, want %d (LRU should retain the newest entries)",
			gained, DefaultWeightCacheEntries/2)
	}
	// The oldest geometry must be gone.
	before = SharedWeightCacheStats().Misses
	if _, err := Reconstruct(vals, Config{Partition: parts[0], Noise: m, MaxIters: 1}); err != nil {
		t.Fatal(err)
	}
	if SharedWeightCacheStats().Misses != before+1 {
		t.Error("oldest geometry unexpectedly survived 2x-capacity flooding")
	}
}

// TestPrivateWeightCache checks that Config.Cache isolates a workload from
// the shared cache, as a measurement that must start cold relies on.
func TestPrivateWeightCache(t *testing.T) {
	vals, m, part := cachePerturbed(t, 2000)
	ResetSharedWeightCache()
	priv := NewWeightCache(8)
	cfg := Config{Partition: part, Noise: m, MaxIters: 3, Cache: priv}
	for i := 0; i < 3; i++ {
		if _, err := Reconstruct(vals, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if st := priv.Stats(); st.Misses != 1 || st.Hits != 2 || st.Entries != 1 {
		t.Errorf("private cache counters: %+v", st)
	}
	if st := SharedWeightCacheStats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("private workload leaked into the shared cache: %+v", st)
	}
}

// TestWeightCacheCanonicalTranslation verifies the canonicalised key: two
// partitions with identical width/interval-count geometry at different
// absolute positions share one matrix, which is what lets Local-mode node
// sub-partitions re-hit the shared cache.
func TestWeightCacheCanonicalTranslation(t *testing.T) {
	m := noise.Uniform{Alpha: 7}
	r := prng.New(5)
	vals := make([]float64, 3000)
	for i := range vals {
		vals[i] = r.Uniform(10, 90) + m.Sample(r)
	}
	partA, _ := NewPartition(0, 100, 25)
	partB, _ := NewPartition(-40, 60, 25) // same width 4, same k, shifted domain
	shifted := make([]float64, len(vals))
	for i, v := range vals {
		shifted[i] = v - 40
	}
	cache := NewWeightCache(8)
	obsA := newObservationGrid(vals, partA, m)
	obsB := newObservationGrid(shifted, partB, m)
	if obsA.lowIdx != obsB.lowIdx || len(obsA.counts) != len(obsB.counts) {
		t.Fatalf("translated grids disagree: lowIdx %d vs %d, len %d vs %d",
			obsA.lowIdx, obsB.lowIdx, len(obsA.counts), len(obsB.counts))
	}
	wA := transitionWeights(Config{Partition: partA, Noise: m, Cache: cache}, obsA)
	wB := transitionWeights(Config{Partition: partB, Noise: m, Cache: cache}, obsB)
	if wA != wB {
		t.Error("translated geometry missed the canonicalised cache key")
	}
}

// TestUncacheableModel ensures models with non-comparable dynamic types skip
// the cache instead of panicking on map insertion.
func TestUncacheableModel(t *testing.T) {
	vals, _, part := cachePerturbed(t, 1000)
	ResetSharedWeightCache()
	m := funcModel{base: noise.Gaussian{Sigma: 10}}
	res, err := Reconstruct(vals, Config{Partition: part, Noise: m})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, p := range res.P {
		sum += p
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("reconstruction with uncacheable model sums to %v", sum)
	}
	if st := SharedWeightCacheStats(); st.Entries != 0 {
		t.Errorf("uncacheable model was cached (%d entries)", st.Entries)
	}
}

// funcModel carries a func field, making its dynamic type non-comparable.
type funcModel struct {
	base noise.Gaussian
	f    func()
}

func (m funcModel) Name() string                         { return fmt.Sprintf("func-%v", m.f == nil) }
func (m funcModel) Sample(r *prng.Source) float64        { return m.base.Sample(r) }
func (m funcModel) Density(y float64) float64            { return m.base.Density(y) }
func (m funcModel) CDF(y float64) float64                { return m.base.CDF(y) }
func (m funcModel) ConfidenceWidth(conf float64) float64 { return m.base.ConfidenceWidth(conf) }
func (m funcModel) Support(tailMass float64) float64     { return m.base.Support(tailMass) }
