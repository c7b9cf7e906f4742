package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(4); got != 4 {
		t.Errorf("Workers(4) = %d", got)
	}
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS", got)
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS", got)
	}
}

func TestNumChunks(t *testing.T) {
	cases := []struct{ n, chunk, want int }{
		{0, 10, 0}, {-5, 10, 0}, {1, 10, 1}, {10, 10, 1},
		{11, 10, 2}, {100, 7, 15},
	}
	for _, c := range cases {
		if got := NumChunks(c.n, c.chunk); got != c.want {
			t.Errorf("NumChunks(%d, %d) = %d, want %d", c.n, c.chunk, got, c.want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("NumChunks with chunk=0 did not panic")
		}
	}()
	NumChunks(5, 0)
}

// TestForEachChunkGrid verifies that the chunk grid covers [0, n) exactly
// once and is identical for every worker count.
func TestForEachChunkGrid(t *testing.T) {
	const n, chunk = 1000, 64
	for _, workers := range []int{1, 2, 3, 8, 100} {
		covered := make([]int32, n)
		ForEachChunk(n, chunk, workers, func(c, lo, hi int) {
			if lo != c*chunk {
				t.Errorf("chunk %d starts at %d, want %d", c, lo, c*chunk)
			}
			if hi-lo > chunk || hi <= lo {
				t.Errorf("chunk %d has bad range [%d,%d)", c, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("workers=%d: index %d covered %d times", workers, i, c)
			}
		}
	}
}

func TestForEachRunsAll(t *testing.T) {
	const n = 500
	var sum atomic.Int64
	if err := ForEach(n, 8, func(i int) error {
		sum.Add(int64(i))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := int64(n * (n - 1) / 2); sum.Load() != want {
		t.Errorf("sum = %d, want %d", sum.Load(), want)
	}
}

// TestForEachError verifies that a failing task always surfaces an error.
// Serially the first failure in index order is returned; under concurrency
// fail-fast may skip earlier failing indices, so only the error's shape is
// asserted there.
func TestForEachError(t *testing.T) {
	fn := func(i int) error {
		if i%7 == 3 { // fails at 3, 10, 17, ...
			return fmt.Errorf("fail at %d", i)
		}
		return nil
	}
	if err := ForEach(100, 1, fn); err == nil || err.Error() != "fail at 3" {
		t.Errorf("workers=1: err = %v, want fail at 3", err)
	}
	for _, workers := range []int{4, 16} {
		err := ForEach(100, workers, fn)
		if err == nil {
			t.Fatalf("workers=%d: error swallowed", workers)
		}
		var idx int
		if _, serr := fmt.Sscanf(err.Error(), "fail at %d", &idx); serr != nil || idx%7 != 3 {
			t.Errorf("workers=%d: unexpected error %v", workers, err)
		}
	}
}

func TestMapOrder(t *testing.T) {
	for _, workers := range []int{1, 8} {
		out, err := Map(50, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
	if _, err := Map(10, 4, func(i int) (int, error) {
		if i >= 5 {
			return 0, errors.New("boom")
		}
		return i, nil
	}); err == nil {
		t.Error("Map swallowed the error")
	}
}

func TestZeroAndNegativeN(t *testing.T) {
	called := false
	ForEachChunk(0, 16, 4, func(c, lo, hi int) { called = true })
	if called {
		t.Error("ForEachChunk called fn for n=0")
	}
	if err := ForEach(-1, 4, func(i int) error { called = true; return nil }); err != nil || called {
		t.Error("ForEach misbehaved for n<0")
	}
}

func TestForEachFailFast(t *testing.T) {
	const n, workers = 400, 4
	var started atomic.Int64
	// Succeeding tasks block until the failing task (index 0, always the
	// first claim) has run, so no worker can race through the work list
	// before the failure is observable.
	failed := make(chan struct{})
	err := ForEach(n, workers, func(i int) error {
		started.Add(1)
		if i == 0 {
			close(failed)
			return errors.New("early failure")
		}
		<-failed
		return nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	// Fail-fast: once the failure lands, unstarted tasks are skipped. Each
	// worker can have at most a few in-flight claims around that moment.
	if s := started.Load(); s > n/4 {
		t.Errorf("fail-fast ran %d of %d tasks", s, n)
	}
}
