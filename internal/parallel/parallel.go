// Package parallel is the library's deterministic worker-pool engine.
//
// Every hot stage of the perturb → reconstruct → train pipeline is
// embarrassingly parallel (per-record noise, per-attribute reconstruction,
// per-attribute split search, per-scenario eval runs), but the library
// also promises bit-for-bit reproducibility. This package reconciles the two
// with one rule, the determinism contract:
//
//	Results are a pure function of the seed and the inputs — never of the
//	worker count.
//
// The contract is achieved by separating work *decomposition* from work
// *scheduling*. ForEachChunk splits an index range into fixed-size chunks
// whose grid depends only on the problem size, never on the worker count;
// callers derive all per-chunk state (PRNG substreams, partial accumulators)
// from the chunk index. Workers merely race to claim chunks, so any worker
// count — including 1 — produces identical output. Results (Map's slice,
// ForEach's error selection) are always kept in index order for the same
// reason.
//
// A worker count of 0 everywhere in the library means "use
// runtime.GOMAXPROCS(0)", i.e. all available cores.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count knob: values <= 0 mean
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// NumChunks returns the number of fixed-size chunks of length chunk needed to
// cover [0, n). It is 0 when n <= 0 and panics when chunk <= 0.
func NumChunks(n, chunk int) int {
	if chunk <= 0 {
		panic("parallel: chunk size must be positive")
	}
	if n <= 0 {
		return 0
	}
	return (n + chunk - 1) / chunk
}

// ForEachChunk partitions [0, n) into fixed-size chunks of length chunk (the
// last chunk may be shorter) and invokes fn(c, lo, hi) once per chunk c
// covering the half-open index range [lo, hi). The chunk grid depends only on
// n and chunk — never on workers — so callers that derive per-chunk state
// from c (e.g. PRNG substreams) obey the determinism contract for any worker
// count. fn is invoked from multiple goroutines; chunks of the same call
// never overlap.
func ForEachChunk(n, chunk, workers int, fn func(c, lo, hi int)) {
	chunks := NumChunks(n, chunk)
	run(chunks, workers, func(c int) bool {
		lo := c * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		fn(c, lo, hi)
		return true
	})
}

// ForEach invokes fn(i) for i in [0, n) across the given number of workers,
// failing fast: once any invocation errors, unstarted tasks are skipped.
// Among the invocations that did fail, the smallest-index error is returned.
// Whether an error is returned at all is scheduling-independent; under
// concurrency the specific error may come from a different index than a
// serial run would report first.
func ForEach(n, workers int, fn func(i int) error) error {
	var mu sync.Mutex
	errIdx := -1
	var firstErr error
	var failed atomic.Bool
	run(n, workers, func(i int) bool {
		if failed.Load() {
			return false
		}
		if err := fn(i); err != nil {
			failed.Store(true)
			mu.Lock()
			if errIdx == -1 || i < errIdx {
				errIdx, firstErr = i, err
			}
			mu.Unlock()
		}
		return true
	})
	return firstErr
}

// Map computes fn for every index and returns the results in index order.
// On error the smallest-index error is returned and the results are nil.
func Map[T any](n, workers int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, workers, func(i int) error {
		v, err := fn(i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// run executes fn(i) for i in [0, n) on up to workers goroutines. Tasks are
// claimed from an atomic counter, so scheduling is dynamic but the set of
// tasks (and therefore any index-keyed output) is fixed. fn returning false
// stops the claim loops early (fail-fast); already-started invocations still
// finish.
func run(n, workers int, fn func(i int) bool) {
	if n <= 0 {
		return
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if !fn(i) {
				return
			}
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if !fn(i) {
					return
				}
			}
		}()
	}
	wg.Wait()
}
