package reconstruct

import (
	"fmt"
	"slices"

	"ppdm/internal/dataset"
	"ppdm/internal/noise"
)

// This file holds the shard-merge algebra of the collector statistics: a
// Collector (and the per-attribute StreamStats built from Collectors) is a
// pure sum of per-record contributions, so statistics accumulated over any
// partition of a record stream merge into exactly the statistics of the
// whole stream. internal/cluster relies on this to train shards
// independently and reconstruct once on the merged counts, bit-identical to
// single-node training. The *State types are the gzipped-JSON wire form the
// subprocess shard protocol exchanges — only aggregated interval counts
// ever leave a shard, never raw perturbed values.

// CollectorState is the serializable form of a Collector: the domain
// partition plus the counts of its K+2r+2 grid cells, where r is the noise
// model's band radius.
type CollectorState struct {
	Lo     float64 `json:"lo"`
	Hi     float64 `json:"hi"`
	K      int     `json:"k"`
	Counts []int   `json:"counts"`
	N      int     `json:"n"`
}

// State captures the collector's current statistics for serialization. The
// returned counts are a copy; mutating them does not affect the collector.
func (c *Collector) State() CollectorState {
	return CollectorState{Lo: c.part.Lo, Hi: c.part.Hi, K: c.part.K, Counts: slices.Clone(c.counts), N: c.n}
}

// NewCollectorFromState reconstitutes a collector for observations
// perturbed with model from its wire state. The state must hold exactly the
// K+2r+2 cells of the model's grid, every cell non-negative and the cells
// summing to N; it is checked before anything is allocated from it.
func NewCollectorFromState(st CollectorState, model noise.Model) (*Collector, error) {
	part, err := NewPartition(st.Lo, st.Hi, st.K)
	if err != nil {
		return nil, err
	}
	r, err := supportRadius(model, part.Width())
	if err != nil {
		return nil, err
	}
	if len(st.Counts)-2*r-2 != st.K {
		return nil, fmt.Errorf("reconstruct: collector state has %d cells, want K+2r+2 with K=%d, r=%d", len(st.Counts), st.K, r)
	}
	total := 0
	for i, cnt := range st.Counts {
		// cnt > N−total also rules out a sum that overflows.
		if cnt < 0 || cnt > st.N-total {
			return nil, fmt.Errorf("reconstruct: collector state cell %d holds %d; cells must be non-negative and sum to n=%d", i, cnt, st.N)
		}
		total += cnt
	}
	if total != st.N {
		return nil, fmt.Errorf("reconstruct: collector state n=%d but counts sum to %d", st.N, total)
	}
	return &Collector{part: part, model: model, width: part.Width(), radius: r, counts: slices.Clone(st.Counts), n: st.N}, nil
}

// Merge folds another collector's statistics into c. Both collectors must
// share the same domain partition and band. Merging the collectors of a
// partitioned stream yields exactly the collector of the whole stream, so
// Reconstruct on the merged counts is bit-identical to single-pass
// collection.
func (c *Collector) Merge(o *Collector) error {
	if c.part != o.part || len(c.counts) != len(o.counts) {
		return fmt.Errorf("reconstruct: merging collectors over different grids (%+v with %d cells vs %+v with %d cells)",
			c.part, len(c.counts), o.part, len(o.counts))
	}
	c.merge(o)
	return nil
}

// merge adds the counts of o, a collector on the same grid.
func (c *Collector) merge(o *Collector) {
	for i, cnt := range o.counts {
		c.counts[i] += cnt
	}
	c.n += o.n
}

// StreamStatsState is the serializable form of StreamStats: every
// per-(attribute, class) collector plus the class counts.
type StreamStatsState struct {
	ByClass     map[int][]CollectorState `json:"by_class"`
	ClassCounts []int                    `json:"class_counts"`
	N           int                      `json:"n"`
}

// State captures the statistics for serialization.
func (st *StreamStats) State() StreamStatsState {
	out := StreamStatsState{
		ByClass:     make(map[int][]CollectorState),
		ClassCounts: slices.Clone(st.classCounts),
		N:           st.n,
	}
	for j, perClass := range st.byClass {
		if perClass == nil {
			continue
		}
		states := make([]CollectorState, len(perClass))
		for cl, c := range perClass {
			states[cl] = c.State()
		}
		out.ByClass[j] = states
	}
	return out
}

// NewStreamStatsFromState reconstitutes stream statistics from their wire
// state against the given schema, with models[j] the noise model of
// attribute j. Every collector state is checked as NewCollectorFromState
// checks it.
func NewStreamStatsFromState(s *dataset.Schema, models map[int]noise.Model, state StreamStatsState) (*StreamStats, error) {
	if len(state.ClassCounts) != s.NumClasses() {
		return nil, fmt.Errorf("reconstruct: state has %d class counts, schema has %d classes", len(state.ClassCounts), s.NumClasses())
	}
	if len(state.ByClass) == 0 {
		return nil, fmt.Errorf("reconstruct: state has no attribute collectors")
	}
	st := &StreamStats{
		schema:      s,
		byClass:     make([][]*Collector, s.NumAttrs()),
		classCounts: slices.Clone(state.ClassCounts),
		n:           state.N,
	}
	for j, states := range state.ByClass {
		if j < 0 || j >= s.NumAttrs() {
			return nil, fmt.Errorf("reconstruct: state has collectors for attribute %d, schema has %d attributes", j, s.NumAttrs())
		}
		if len(states) != s.NumClasses() {
			return nil, fmt.Errorf("reconstruct: attribute %d: state has %d per-class collectors, schema has %d classes", j, len(states), s.NumClasses())
		}
		perClass := make([]*Collector, len(states))
		for cl, cs := range states {
			c, err := NewCollectorFromState(cs, models[j])
			if err != nil {
				return nil, fmt.Errorf("reconstruct: attribute %d class %d: %w", j, cl, err)
			}
			if cl > 0 && c.part != perClass[0].part {
				return nil, fmt.Errorf("reconstruct: attribute %d class %d: partition differs from class 0's", j, cl)
			}
			perClass[cl] = c
		}
		st.byClass[j] = perClass
	}
	return st, nil
}

// Merge folds another statistics object into st. Both must cover the same
// schema shape and the same attribute partitions. Statistics collected over
// the shards of a partitioned stream merge into exactly the statistics of
// the whole stream.
func (st *StreamStats) Merge(o *StreamStats) error {
	if len(st.classCounts) != len(o.classCounts) {
		return fmt.Errorf("reconstruct: merging stats with %d vs %d classes", len(st.classCounts), len(o.classCounts))
	}
	if len(st.byClass) != len(o.byClass) {
		return fmt.Errorf("reconstruct: merging stats over %d vs %d attributes", len(st.byClass), len(o.byClass))
	}
	for j, perClass := range st.byClass {
		if (perClass == nil) != (o.byClass[j] == nil) {
			return fmt.Errorf("reconstruct: merging stats: attribute %d collected on one side only", j)
		}
		for cl, c := range perClass {
			if err := c.Merge(o.byClass[j][cl]); err != nil {
				return fmt.Errorf("reconstruct: attribute %d class %d: %w", j, cl, err)
			}
		}
	}
	for cl, cnt := range o.classCounts {
		st.classCounts[cl] += cnt
	}
	st.n += o.n
	return nil
}
