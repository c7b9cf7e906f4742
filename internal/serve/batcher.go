package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"
)

// Batcher defaults, used when the corresponding Config field is zero.
const (
	// DefaultMaxBatch is the record count at which the dispatcher stops
	// collecting queued groups into one micro-batch.
	DefaultMaxBatch = 64
	// DefaultQueueDepth is the bounded-queue capacity in request groups;
	// submissions beyond it are rejected immediately (ErrQueueFull) rather
	// than buffered without limit.
	DefaultQueueDepth = 256
)

// serialMissMax is the cache-miss count up to which a flush classifies
// misses serially through the PredictBins fast path instead of fanning out
// a ClassifyBatch call. The serial walk is allocation-free and, at
// micro-batch sizes, faster than paying the worker-engine dispatch; bigger
// flushes (bulk cold batches) still get the parallel engine.
const serialMissMax = 128

// ErrQueueFull is returned by Submit when the bounded request queue is at
// capacity — the server is saturated and the client should back off.
var ErrQueueFull = errors.New("serve: request queue full")

// ErrStopped is returned by Submit when the batcher has been closed.
var ErrStopped = errors.New("serve: batcher stopped")

// ErrDeadlineExceeded is returned when a request's deadline passes
// before its micro-batch is dispatched: the group is rejected without
// ever touching the model, so an overloaded server spends no
// classification work on answers nobody is waiting for.
var ErrDeadlineExceeded = errors.New("serve: request deadline exceeded")

// errShortOut flags a Submit caller whose output slice cannot hold one
// class per record.
var errShortOut = errors.New("serve: output slice shorter than record count")

// group is one submitted request: all of its records are answered together,
// from one model snapshot. Predictions are written straight into dst, the
// caller's slice, so the steady-state path moves no per-request slices
// through the channel. Groups are pooled; every field except out is reset
// between uses.
type group struct {
	records  [][]float64
	dst      []int
	cached   int
	deadline time.Time // zero = no deadline
	out      chan groupResult
}

// groupResult signals a group's completion: the cache-hit count and the
// exact model snapshot that produced the predictions (every record of a
// group is classified by one generation, even across a concurrent hot
// reload). The predictions themselves are already in the caller's slice.
type groupResult struct {
	cached int
	model  *Model
	err    error
}

// groupPool recycles groups (and their 1-slot result channels) across
// submissions, keeping the steady-state Submit path allocation-free.
var groupPool = sync.Pool{New: func() any { return &group{out: make(chan groupResult, 1)} }}

// missSlot locates one cache-missed record: its group, its index within the
// group, and its cache key's span inside the dispatcher's keyBuf scratch.
type missSlot struct {
	g              *group
	i              int
	keyOff, keyLen int
}

// Batcher coalesces concurrent classification requests into micro-batches:
// request groups land in a bounded queue, a single dispatcher goroutine
// takes the first group plus whatever else is already queued (up to
// maxBatch records), and each flush classifies the whole batch against one
// model snapshot. Under load the queue back-fills while a flush is
// running, so batches grow with pressure (classic adaptive
// micro-batching).
//
// The scratch fields below the counters belong exclusively to the
// dispatcher goroutine and persist across flushes, so the steady-state
// flush path allocates nothing.
type Batcher struct {
	queue    chan *group
	maxBatch int
	workers  int
	model    func() *Model
	stop     chan struct{}
	done     chan struct{}
	closed   atomic.Bool

	batches atomic.Int64
	records atomic.Int64
	groups  atomic.Int64
	rejects atomic.Int64
	expired atomic.Int64
	largest atomic.Int64

	// Live gauges: work accepted but not yet answered, and batches mid-flush.
	inflightGroups  atomic.Int64
	inflightRecords atomic.Int64
	flushing        atomic.Int64

	// Dispatcher-owned flush scratch, reused batch to batch.
	pending   []*group
	live      []*group
	missSlots []missSlot
	missRecs  [][]float64
	keyBuf    []byte
	bins      []int
}

// NewBatcher starts the dispatcher. model returns the current snapshot
// (typically an atomic.Pointer load); maxBatch and queueDepth fall back to
// the package defaults when zero; workers bounds each flush's
// classification parallelism (0 = all cores).
func NewBatcher(model func() *Model, maxBatch, queueDepth, workers int) *Batcher {
	if maxBatch <= 0 {
		maxBatch = DefaultMaxBatch
	}
	if queueDepth <= 0 {
		queueDepth = DefaultQueueDepth
	}
	b := &Batcher{
		queue:    make(chan *group, queueDepth),
		maxBatch: maxBatch,
		workers:  workers,
		model:    model,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go b.run()
	return b
}

// Submit queues one request group and blocks until its micro-batch is
// classified. Predictions are written into out (one class index per record,
// in input order; len(out) must be at least len(records)); the return
// values are the number of records answered from the prediction cache and
// the model snapshot that produced the batch. It fails fast with
// ErrQueueFull when the bounded queue is at capacity and with ErrStopped
// when the batcher is shut down. The steady-state path allocates nothing.
func (b *Batcher) Submit(records [][]float64, out []int) (int, *Model, error) {
	return b.submit(records, out, time.Time{}, false)
}

// SubmitDeadline is Submit with an absolute deadline threaded through
// the micro-batcher: a group whose deadline passes while queued is
// answered ErrDeadlineExceeded without reaching the model. A zero
// deadline means none.
func (b *Batcher) SubmitDeadline(records [][]float64, out []int, deadline time.Time) (int, *Model, error) {
	return b.submit(records, out, deadline, false)
}

// SubmitWait is SubmitDeadline except that a full queue blocks until
// space frees (or the deadline passes) instead of failing fast with
// ErrQueueFull. It exists as the no-shedding baseline — queueing into
// timeout — that the saturation benchmarks contrast load shedding
// against; the serving path proper always fails fast.
func (b *Batcher) SubmitWait(records [][]float64, out []int, deadline time.Time) (int, *Model, error) {
	return b.submit(records, out, deadline, true)
}

// QueueLoad reports the queued group count and the queue capacity — the
// saturation signal the load-shedding middleware samples before a
// request body is even parsed.
func (b *Batcher) QueueLoad() (depth, capacity int) { return len(b.queue), cap(b.queue) }

// submit implements the Submit variants.
func (b *Batcher) submit(records [][]float64, out []int, deadline time.Time, wait bool) (int, *Model, error) {
	if b.closed.Load() {
		return 0, nil, ErrStopped
	}
	if len(out) < len(records) {
		return 0, nil, errShortOut
	}
	if !deadline.IsZero() && !time.Now().Before(deadline) {
		b.expired.Add(1)
		return 0, nil, ErrDeadlineExceeded
	}
	g := groupPool.Get().(*group)
	g.records, g.dst, g.cached, g.deadline = records, out[:len(records)], 0, deadline
	if wait && !deadline.IsZero() {
		t := time.NewTimer(time.Until(deadline))
		select {
		case b.queue <- g:
			t.Stop()
		case <-t.C:
			b.expired.Add(1)
			g.release()
			return 0, nil, ErrDeadlineExceeded
		case <-b.done:
			t.Stop()
			g.release()
			return 0, nil, ErrStopped
		}
	} else if wait {
		select {
		case b.queue <- g:
		case <-b.done:
			g.release()
			return 0, nil, ErrStopped
		}
	} else {
		select {
		case b.queue <- g:
		default:
			b.rejects.Add(1)
			g.release()
			return 0, nil, ErrQueueFull
		}
	}
	b.inflightGroups.Add(1)
	b.inflightRecords.Add(int64(len(records)))
	defer func() {
		b.inflightGroups.Add(-1)
		b.inflightRecords.Add(-int64(len(records)))
	}()
	select {
	case res := <-g.out:
		g.release()
		return res.cached, res.model, res.err
	case <-b.done:
		// The dispatcher drained and exited; the group may still have been
		// answered in the final drain.
		select {
		case res := <-g.out:
			g.release()
			return res.cached, res.model, res.err
		default:
			// Still sitting unanswered in the queue — the queue channel holds
			// a reference, so the group must not be pooled. Let the GC take it.
			return 0, nil, ErrStopped
		}
	}
}

// release drops the group's references to caller memory and returns it to
// the pool.
func (g *group) release() {
	g.records, g.dst, g.cached, g.deadline = nil, nil, 0, time.Time{}
	groupPool.Put(g)
}

// Close stops accepting work, flushes everything still queued, and waits
// for the dispatcher to exit.
func (b *Batcher) Close() {
	if b.closed.Swap(true) {
		<-b.done
		return
	}
	close(b.stop)
	<-b.done
}

// Stats is a point-in-time snapshot of the batcher counters.
type Stats struct {
	// Batches is the number of micro-batches flushed.
	Batches int64 `json:"batches"`
	// Records is the total records classified through the batcher.
	Records int64 `json:"records"`
	// Groups is the total request groups served.
	Groups int64 `json:"groups"`
	// LargestBatch is the high-watermark batch size in records.
	LargestBatch int64 `json:"largest_batch"`
	// QueueRejects counts submissions bounced off the full queue.
	QueueRejects int64 `json:"queue_rejects"`
	// DeadlineRejects counts requests whose deadline expired before their
	// micro-batch was dispatched (rejected without reaching the model).
	DeadlineRejects int64 `json:"deadline_rejects"`
	// QueueDepth is the current number of queued groups.
	QueueDepth int `json:"queue_depth"`
	// QueueCap is the bounded queue's capacity in groups.
	QueueCap int `json:"queue_cap"`
	// InFlightGroups is the number of request groups accepted but not yet
	// answered (queued or mid-flush).
	InFlightGroups int64 `json:"in_flight_groups"`
	// InFlightRecords is the record count across in-flight groups.
	InFlightRecords int64 `json:"in_flight_records"`
	// InFlightBatches is the number of micro-batches currently being
	// classified (0 or 1: the dispatcher flushes one batch at a time).
	InFlightBatches int64 `json:"in_flight_batches"`
}

// Stats returns the current counters.
func (b *Batcher) Stats() Stats {
	return Stats{
		Batches:      b.batches.Load(),
		Records:      b.records.Load(),
		Groups:       b.groups.Load(),
		LargestBatch: b.largest.Load(),
		QueueRejects: b.rejects.Load(),

		DeadlineRejects: b.expired.Load(),
		QueueDepth:      len(b.queue),
		QueueCap:        cap(b.queue),

		InFlightGroups:  b.inflightGroups.Load(),
		InFlightRecords: b.inflightRecords.Load(),
		InFlightBatches: b.flushing.Load(),
	}
}

// run is the dispatcher loop: wait for a first group, batch it up with
// whatever else is queued, classify, repeat. On stop it drains and answers
// everything still queued.
func (b *Batcher) run() {
	defer close(b.done)
	for {
		select {
		case g := <-b.queue:
			b.collectAndFlush(g)
		case <-b.stop:
			b.drain()
			return
		}
		select {
		case <-b.stop:
			b.drain()
			return
		default:
		}
	}
}

// collectAndFlush forms one micro-batch behind the first group and
// classifies it: the batch is the first group plus every group already
// queued, up to maxBatch records, so under load it grows to whatever
// piled up during the previous flush.
func (b *Batcher) collectAndFlush(first *group) {
	pending := append(b.pending[:0], first)
	n := len(first.records)
collect:
	for n < b.maxBatch {
		select {
		case g := <-b.queue:
			pending = append(pending, g)
			n += len(g.records)
		default:
			break collect
		}
	}
	b.flush(pending, n)
	clear(pending)
	b.pending = pending[:0]
}

// drain flushes every group still in the queue at shutdown, in maxBatch-
// record batches.
func (b *Batcher) drain() {
	for {
		select {
		case g := <-b.queue:
			b.collectAndFlush(g)
		default:
			return
		}
	}
}

// flush classifies one micro-batch. The model snapshot is loaded exactly
// once, so every group in the batch — and therefore every HTTP response —
// is answered by a single model generation even while a hot reload swaps
// the pointer concurrently. Records hitting the snapshot's prediction
// cache are answered in place; the misses of all groups are classified
// together (see classifyMisses). All bookkeeping lives in the dispatcher's
// reusable scratch, so a steady-state flush allocates nothing.
func (b *Batcher) flush(pending []*group, n int) {
	b.flushing.Add(1)
	defer b.flushing.Add(-1)
	m := b.model()
	b.batches.Add(1)
	b.records.Add(int64(n))
	b.groups.Add(int64(len(pending)))
	if hw := b.largest.Load(); int64(n) > hw {
		b.largest.Store(int64(n)) // dispatcher-only write; no CAS needed
	}

	// Reject groups whose deadline already passed — nobody is waiting for
	// the answer, so spend no model work on them — then validate the rest
	// up front so one malformed record fails only its own request, never
	// the whole batch.
	var now time.Time
	live := b.live[:0]
	for _, g := range pending {
		if !g.deadline.IsZero() {
			if now.IsZero() {
				now = time.Now()
			}
			if !now.Before(g.deadline) {
				b.expired.Add(1)
				g.out <- groupResult{err: ErrDeadlineExceeded}
				continue
			}
		}
		if err := checkGroup(m, g.records); err != nil {
			g.out <- groupResult{err: err}
			continue
		}
		g.cached = 0
		live = append(live, g)
	}

	// Probe the prediction cache record by record. Keys are rendered into
	// the shared keyBuf and probed without materializing a string; a hit is
	// answered in place and its key truncated away, a miss keeps its key
	// span alive for the eventual insert.
	slots := b.missSlots[:0]
	b.keyBuf = b.keyBuf[:0]
	for _, g := range live {
		for i, rec := range g.records {
			if m.cache == nil {
				slots = append(slots, missSlot{g: g, i: i})
				continue
			}
			off := len(b.keyBuf)
			b.keyBuf = m.appendKey(b.keyBuf, rec)
			if class, ok := m.cache.getBytes(b.keyBuf[off:]); ok {
				g.dst[i] = class
				g.cached++
				b.keyBuf = b.keyBuf[:off]
				continue
			}
			slots = append(slots, missSlot{g: g, i: i, keyOff: off, keyLen: len(b.keyBuf) - off})
		}
	}

	var err error
	if len(slots) > 0 {
		err = b.classifyMisses(m, slots)
	}
	if err != nil {
		// Widths were validated above, so neither learner can fail here; if
		// something does, fail every group of the batch honestly.
		for _, g := range live {
			g.out <- groupResult{err: err}
		}
	} else {
		for _, g := range live {
			g.out <- groupResult{cached: g.cached, model: m}
		}
	}

	clear(live)
	b.live = live[:0]
	clear(slots)
	b.missSlots = slots[:0]
}

// classifyMisses answers every cache-missed slot and inserts the results
// into the prediction cache. Small miss counts — the steady-state
// micro-batch regime — walk the model's allocation-free PredictBins path
// serially, reusing one discretize buffer; larger flushes (or predictors
// without a discretized fast path) fall back to the parallel ClassifyBatch
// engine, which allocates but amortizes across the bulk batch.
func (b *Batcher) classifyMisses(m *Model, slots []missSlot) error {
	if bp, ok := m.Predictor.(binsPredictor); ok && len(slots) <= serialMissMax {
		for _, s := range slots {
			bins := m.appendBins(b.bins[:0], s.g.records[s.i])
			b.bins = bins[:0]
			class, err := bp.PredictBins(bins)
			if err != nil {
				return err
			}
			s.g.dst[s.i] = class
			if m.cache != nil {
				m.cache.putBytes(b.keyBuf[s.keyOff:s.keyOff+s.keyLen], class)
			}
		}
		return nil
	}

	recs := b.missRecs[:0]
	for _, s := range slots {
		recs = append(recs, s.g.records[s.i])
	}
	preds, err := m.Predictor.ClassifyBatch(recs, b.workers)
	clear(recs)
	b.missRecs = recs[:0]
	if err != nil {
		return err
	}
	for k, s := range slots {
		s.g.dst[s.i] = preds[k]
		if m.cache != nil {
			m.cache.putBytes(b.keyBuf[s.keyOff:s.keyOff+s.keyLen], preds[k])
		}
	}
	return nil
}

// checkGroup validates every record width of one group.
func checkGroup(m *Model, records [][]float64) error {
	for _, rec := range records {
		if err := m.CheckRecord(rec); err != nil {
			return err
		}
	}
	return nil
}
