package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppdm/internal/reconstruct"
	"ppdm/internal/synth"
)

// fakePredictor classifies everything as class 0, optionally blocking on
// gate to hold a flush open, and counts ClassifyBatch calls and records.
type fakePredictor struct {
	gate    chan struct{} // nil = never block
	calls   atomic.Int64
	records atomic.Int64
}

func (f *fakePredictor) Predict(rec []float64) (int, error) { return 0, nil }

func (f *fakePredictor) ClassifyBatch(records [][]float64, workers int) ([]int, error) {
	f.calls.Add(1)
	f.records.Add(int64(len(records)))
	if f.gate != nil {
		<-f.gate
	}
	return make([]int, len(records)), nil
}

// fakeModel wraps a fakePredictor in a Model over the benchmark schema.
func fakeModel(p Predictor, cacheSize int) *Model {
	s := synth.Schema()
	parts := make([]reconstruct.Partition, s.NumAttrs())
	for j, a := range s.Attrs {
		parts[j], _ = reconstruct.NewPartition(a.Lo, a.Hi, 10)
	}
	m := &Model{Predictor: p, Schema: s, Partitions: parts, Format: "fake", Mode: "test", Generation: 1}
	if cacheSize > 0 {
		m.cache = newLRU(cacheSize)
	}
	return m
}

// record returns a valid benchmark-width record with the given lead value.
func record(v float64) []float64 {
	rec := make([]float64, synth.Schema().NumAttrs())
	rec[0] = v
	return rec
}

// TestBatcherCoalesces holds the first flush open while more groups queue
// up, then checks they were classified in fewer ClassifyBatch calls than
// groups — i.e. genuinely coalesced into micro-batches.
func TestBatcherCoalesces(t *testing.T) {
	p := &fakePredictor{gate: make(chan struct{})}
	b := NewBatcher(func() *Model { return fakeModel(p, 0) }, 64, 0, 1)
	defer b.Close()

	const groups = 20
	var wg sync.WaitGroup
	wg.Add(groups)
	for i := 0; i < groups; i++ {
		go func(i int) {
			defer wg.Done()
			out := make([]int, 1)
			if _, _, err := b.Submit([][]float64{record(float64(i))}, out); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}(i)
	}
	// Let the first flush start and the rest pile up behind it, then open
	// the gate for every flush.
	time.Sleep(50 * time.Millisecond)
	close(p.gate)
	wg.Wait()

	if got := p.records.Load(); got != groups {
		t.Fatalf("classified %d records, want %d", got, groups)
	}
	if calls := p.calls.Load(); calls >= groups {
		t.Fatalf("%d ClassifyBatch calls for %d groups: nothing coalesced", calls, groups)
	}
	if st := b.Stats(); st.LargestBatch < 2 {
		t.Fatalf("largest batch %d, want >= 2 (stats: %+v)", st.LargestBatch, st)
	}
}

// TestBatcherQueueFull fills the bounded queue behind a blocked flush and
// checks the overflow submission is rejected, not buffered.
func TestBatcherQueueFull(t *testing.T) {
	p := &fakePredictor{gate: make(chan struct{})}
	b := NewBatcher(func() *Model { return fakeModel(p, 0) }, 1, 2, 1)
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(p.gate) }) }
	defer b.Close()
	defer openGate() // must run before b.Close, or Close waits on the gated flush forever

	// One submission occupies the dispatcher (blocked in the gate) and the
	// other two fill the 2-slot queue. Fillers retry on rejection: which of
	// the three lands where is scheduling-dependent, but with the dispatcher
	// gated the steady state is always 1 in flight + 2 queued.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, 1)
			for {
				if _, _, err := b.Submit([][]float64{record(1)}, out); !errors.Is(err, ErrQueueFull) {
					return
				}
				time.Sleep(time.Millisecond)
			}
		}()
	}
	// Only once both queue slots are provably occupied is a rejection
	// guaranteed — and only then is probing safe, since a successful probe
	// enqueue would block forever behind the gate.
	deadline := time.Now().Add(10 * time.Second)
	for b.Stats().QueueDepth < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", b.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := b.Submit([][]float64{record(9)}, make([]int, 1)); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("submit into a full queue: err = %v, want ErrQueueFull", err)
	}
	if b.Stats().QueueRejects == 0 {
		t.Fatal("no queue rejects counted")
	}
	openGate() // release the blocked flush so the queued groups drain
	wg.Wait()
}

// TestBatcherCache checks repeated records are answered from the LRU and
// reported as cached.
func TestBatcherCache(t *testing.T) {
	p := &fakePredictor{}
	m := fakeModel(p, 16)
	b := NewBatcher(func() *Model { return m }, 0, 0, 1)
	defer b.Close()

	rec := record(5)
	out := make([]int, 1)
	if cached, _, err := b.Submit([][]float64{rec}, out); err != nil || cached != 0 {
		t.Fatalf("first submit: cached=%d err=%v", cached, err)
	}
	if cached, _, err := b.Submit([][]float64{rec}, out); err != nil || cached != 1 {
		t.Fatalf("second submit: cached=%d err=%v, want a cache hit", cached, err)
	}
	if got := p.records.Load(); got != 1 {
		t.Fatalf("predictor saw %d records, want 1 (second answered from cache)", got)
	}
	hits, misses, size := m.cache.stats()
	if hits != 1 || misses != 1 || size != 1 {
		t.Fatalf("cache stats: hits=%d misses=%d size=%d", hits, misses, size)
	}
}

// TestBatcherInvalidGroupFailsAlone queues a malformed group and a valid
// one behind a gated flush, so both land in the next flush together; only
// the malformed group errors, and its record never reaches the model.
func TestBatcherInvalidGroupFailsAlone(t *testing.T) {
	p := &fakePredictor{gate: make(chan struct{})}
	b := NewBatcher(func() *Model { return fakeModel(p, 0) }, 0, 0, 1)
	var gateOnce sync.Once
	openGate := func() { gateOnce.Do(func() { close(p.gate) }) }
	defer b.Close()
	defer openGate() // must run before b.Close, or Close waits on the gated flush forever

	var wg sync.WaitGroup
	wg.Add(3)
	var holdErr, badErr, goodErr error
	go func() {
		defer wg.Done()
		_, _, holdErr = b.Submit([][]float64{record(0)}, make([]int, 1))
	}()
	waitFor(t, "the first flush to block in the gate", func() bool { return p.calls.Load() == 1 })
	go func() {
		defer wg.Done()
		_, _, badErr = b.Submit([][]float64{{1, 2}}, make([]int, 1)) // wrong width
	}()
	go func() {
		defer wg.Done()
		_, _, goodErr = b.Submit([][]float64{record(1)}, make([]int, 1))
	}()
	waitFor(t, "both groups to queue", func() bool { return b.Stats().QueueDepth == 2 })
	openGate()
	wg.Wait()

	if holdErr != nil {
		t.Fatalf("gated group failed: %v", holdErr)
	}
	if badErr == nil {
		t.Fatal("malformed group was accepted")
	}
	if goodErr != nil {
		t.Fatalf("valid group failed: %v", goodErr)
	}
	if st := b.Stats(); st.Batches != 2 || st.LargestBatch != 2 {
		t.Fatalf("stats %+v: want the two queued groups in one flush after the gated one", st)
	}
	if got := p.records.Load(); got != 2 {
		t.Fatalf("predictor saw %d records, want 2 (the malformed one withheld)", got)
	}
}

// TestLRUEviction checks the bound holds and the oldest entry leaves first.
func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.putBytes([]byte("a"), 1)
	c.putBytes([]byte("b"), 2)
	if _, ok := c.getBytes([]byte("a")); !ok { // refresh a; b is now oldest
		t.Fatal("a missing")
	}
	c.putBytes([]byte("c"), 3)
	if _, ok := c.getBytes([]byte("b")); ok {
		t.Fatal("b should have been evicted")
	}
	if v, ok := c.getBytes([]byte("a")); !ok || v != 1 {
		t.Fatal("a lost")
	}
	if v, ok := c.getBytes([]byte("c")); !ok || v != 3 {
		t.Fatal("c lost")
	}
	if _, _, size := c.stats(); size != 2 {
		t.Fatalf("size %d, want 2", size)
	}
}
