package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"

	"ppdm/internal/stream"
)

// span is one call into a layer, recorded by the benchmark around the
// public function it called. Parent is the ID of the span the call happened
// inside (0 for an op's root span); spans of one op share Op.
type span struct {
	ID       int                `json:"id"`
	Parent   int                `json:"parent"`
	Op       int                `json:"op"`
	Name     string             `json:"name"`
	StartNS  int64              `json:"start_ns"`
	EndNS    int64              `json:"end_ns"`
	Counters map[string]float64 `json:"counters,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndNS-s.StartNS) / 1e9 }

// tracer keeps a traced run's spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its ID.
func (t *tracer) start(name string, op, parent int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, StartNS: now})
	return len(t.spans)
}

// finish closes span id, attaching counters (which may be nil).
func (t *tracer) finish(id int, counters map[string]float64) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = now
	t.spans[id-1].Counters = counters
}

// annotate replaces the counters of span id.
func (t *tracer) annotate(id int, counters map[string]float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Counters = counters
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// traceFile is the JSON document a traced run writes.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func (t *tracer) writeFile(path, workload string, seed uint64) error {
	b, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Spans: t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// opTrace indexes the spans of one op.
type opTrace struct {
	root     span
	spans    []span
	children map[int][]span
}

// ops groups spans by op, in op order. Only ops with a root span count.
func ops(spans []span) []opTrace {
	byOp := map[int]*opTrace{}
	var order []int
	for _, s := range spans {
		o, ok := byOp[s.Op]
		if !ok {
			o = &opTrace{children: map[int][]span{}}
			byOp[s.Op] = o
			order = append(order, s.Op)
		}
		o.spans = append(o.spans, s)
		if s.Parent == 0 {
			o.root = s
		} else {
			o.children[s.Parent] = append(o.children[s.Parent], s)
		}
	}
	sort.Ints(order)
	var out []opTrace
	for _, id := range order {
		if byOp[id].root.ID != 0 {
			out = append(out, *byOp[id])
		}
	}
	return out
}

// self is the summed self time of the op's spans with the given name: each
// span's duration minus the part its child spans cover.
func (o opTrace) self(name string) float64 {
	total := 0.0
	for _, s := range o.spans {
		if s.Name != name {
			continue
		}
		d := s.seconds()
		for _, c := range o.children[s.ID] {
			d -= c.seconds()
		}
		total += d
	}
	return total
}

// counter sums a counter over the op's spans with the given name.
func (o opTrace) counter(name, key string) float64 {
	total := 0.0
	for _, s := range o.spans {
		if s.Name == name {
			total += s.Counters[key]
		}
	}
	return total
}

// coverage is the share of the op's wall time that the self times of the
// named stages account for. Stages that tile the op exactly give 1.
func (o opTrace) coverage(stages []string) float64 {
	sum := 0.0
	for _, st := range stages {
		sum += o.self(st)
	}
	return sum / o.root.seconds()
}

// coveredStages lists, by the name of an op's root span, the stages whose
// self times must sum to the op's wall time.
var coveredStages = map[string][]string{
	"train_stream.op": {"synth.next", "noise.next", "core.spill_shard", "core.merge_shard_spills", "bayes.add_batch", "bayes.finalize"},
	"mine_ingest.op":  {"assoc.add_batch", "assoc.index_build", "assoc.mine"},
}

// medianCoverage is the median over the ops named rootName of the share of
// their wall time that the root's coveredStages cover (NaN when there is no
// such op). The median keeps one op that the host stalled between two
// stages from deciding the result.
func medianCoverage(spans []span, rootName string) float64 {
	var cs []float64
	for _, o := range ops(spans) {
		if o.root.Name == rootName {
			cs = append(cs, o.coverage(coveredStages[rootName]))
		}
	}
	return median(cs)
}

// checkCoverage fails the run when the stages do not sum to the median op's
// wall time within 5%.
func (r *run) checkCoverage(rootName string) {
	c := medianCoverage(r.tr.snapshot(), rootName)
	r.check(c > 0.95 && c < 1.05, "stages %v cover %.3f of the median %s wall time", coveredStages[rootName], c, rootName)
}

// layerMedian sets metric to the median of f(op) over the traced ops whose
// root span is named rootName.
func (r *run) layerMedian(metric, rootName string, f func(opTrace) float64) {
	var xs []float64
	for _, o := range ops(r.tr.snapshot()) {
		if o.root.Name == rootName {
			xs = append(xs, f(o))
		}
	}
	if len(xs) > 0 {
		r.metrics[metric] = median(xs)
	}
}

// opID hands out a fresh op ID when traced is set on a traced run, and 0,
// which records no spans, otherwise.
func (r *run) opID(traced bool) int {
	if !traced || r.tr == nil {
		return 0
	}
	r.lastOp++
	return r.lastOp
}

// startSpan opens a span when op > 0 on a traced run and returns its ID
// (0 otherwise).
func (r *run) startSpan(name string, op, parent int) int {
	if r.tr == nil || op == 0 {
		return 0
	}
	return r.tr.start(name, op, parent)
}

// finishSpan closes a span startSpan opened.
func (r *run) finishSpan(id int, counters map[string]float64) {
	if id != 0 {
		r.tr.finish(id, counters)
	}
}

// tracedSource times Next on a record source. Wrapping the generator and
// the perturbing source separately splits their time: the outer wrapper's
// self time is the perturbation, the inner one's the generation.
type tracedSource struct {
	stream.Source
	tr     *tracer
	name   string
	op     int
	parent int           // parent span when outer is nil
	outer  *tracedSource // the wrapper whose Next calls this one
	cur    int           // span of the Next call in progress
}

func (s *tracedSource) Next() (*stream.Batch, error) {
	parent := s.parent
	if s.outer != nil {
		parent = s.outer.cur
	}
	s.cur = s.tr.start(s.name, s.op, parent)
	b, err := s.Source.Next()
	var counters map[string]float64
	if b != nil {
		counters = map[string]float64{"records": float64(b.N())}
	}
	s.tr.finish(s.cur, counters)
	return b, err
}
