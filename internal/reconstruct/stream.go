package reconstruct

import (
	"fmt"
	"io"
	"slices"

	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/stream"
)

// StreamStats holds the sufficient statistics of a record stream for
// distribution reconstruction: one Collector per (attribute, class) pair of
// the requested attributes, and the class counts. Memory is
// O(attributes × classes × intervals) regardless of how many records flowed
// through — the bounded-memory counterpart of calling Reconstruct on
// materialized columns, with bit-identical results (the reconstruction
// depends only on the interval counts; see Collector).
type StreamStats struct {
	schema *dataset.Schema
	// byClass[j][c] collects attribute j over the records of class c; nil
	// for attributes that were not requested.
	byClass     [][]*Collector
	classCounts []int
	n           int
}

// CollectStream drains a record stream in one pass, accumulating collectors
// for every attribute listed in parts (attribute index → domain partition),
// each under that attribute's noise model in models.
func CollectStream(src stream.Source, parts map[int]Partition, models map[int]noise.Model) (*StreamStats, error) {
	st, err := NewStreamStats(src.Schema(), parts, models)
	if err != nil {
		return nil, err
	}
	for {
		b, err := src.Next()
		if err == io.EOF {
			return st, nil
		}
		if err != nil {
			return nil, err
		}
		if err := st.AddBatch(b); err != nil {
			return nil, err
		}
	}
}

// NewStreamStats returns empty statistics over the given schema, attribute
// partitions and noise models, ready for AddBatch. Every attribute in parts
// needs a model.
func NewStreamStats(s *dataset.Schema, parts map[int]Partition, models map[int]noise.Model) (*StreamStats, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("reconstruct: no attribute partitions to collect")
	}
	st := &StreamStats{
		schema:      s,
		byClass:     make([][]*Collector, s.NumAttrs()),
		classCounts: make([]int, s.NumClasses()),
	}
	for j, part := range parts {
		if j < 0 || j >= s.NumAttrs() {
			return nil, fmt.Errorf("reconstruct: partition for attribute %d, schema has %d attributes", j, s.NumAttrs())
		}
		perClass := make([]*Collector, s.NumClasses())
		for cl := range perClass {
			c, err := NewCollector(part, models[j])
			if err != nil {
				return nil, fmt.Errorf("reconstruct: attribute %q: %w", s.Attrs[j].Name, err)
			}
			perClass[cl] = c
		}
		st.byClass[j] = perClass
	}
	return st, nil
}

// AddBatch folds one record batch into the statistics. Each value is binned
// once, into the collector of its attribute and its record's class.
func (st *StreamStats) AddBatch(b *stream.Batch) error {
	// CheckBatch rejects non-finite values, so the collectors can skip
	// that check.
	if err := stream.CheckBatch(st.schema, b); err != nil {
		return err
	}
	for i := 0; i < b.N(); i++ {
		row := b.Row(i)
		label := b.Labels[i]
		st.classCounts[label]++
		for j, perClass := range st.byClass {
			if perClass != nil {
				perClass[label].add(row[j])
			}
		}
	}
	st.n += b.N()
	return nil
}

// Schema returns the schema of the collected stream.
func (st *StreamStats) Schema() *dataset.Schema { return st.schema }

// N returns the number of records collected.
func (st *StreamStats) N() int { return st.n }

// ClassCounts returns the number of records seen per class. The returned
// slice aliases the statistics' storage; callers must not modify it.
func (st *StreamStats) ClassCounts() []int { return st.classCounts }

// Collector returns a new collector of the given attribute over all
// records, the sum of its per-class collectors, or nil if the attribute was
// not requested.
func (st *StreamStats) Collector(attr int) *Collector {
	if attr < 0 || attr >= len(st.byClass) || st.byClass[attr] == nil {
		return nil
	}
	perClass := st.byClass[attr]
	all := *perClass[0]
	all.counts = slices.Clone(all.counts)
	for _, c := range perClass[1:] {
		all.merge(c)
	}
	return &all
}

// ClassCollector returns the collector of the given attribute restricted to
// records of one class, or nil if the attribute was not requested.
func (st *StreamStats) ClassCollector(attr, class int) *Collector {
	if attr < 0 || attr >= len(st.byClass) || class < 0 || class >= len(st.byClass[attr]) {
		return nil
	}
	return st.byClass[attr][class]
}
