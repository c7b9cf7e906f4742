package bayes

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/parallel"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
)

// TrainStats accumulates the sufficient statistics of naïve-Bayes training:
// per-(class, attribute, interval) counts for directly-binned cells and
// reconstruct.Collector statistics for ByClass-reconstructed cells. The
// statistics are a pure sum over records, so stats built over the shards of
// a partitioned stream Merge into exactly the stats of the whole stream, and
// Finalize yields a classifier byte-identical to single-node TrainStream.
// internal/cluster trains shards on this type; TrainStream itself is the
// one-shard special case.
//
// A TrainStats is not safe for concurrent use.
type TrainStats struct {
	cfg         Config
	schema      *dataset.Schema
	parts       []reconstruct.Partition
	useRecon    []bool
	stats       *reconstruct.StreamStats
	hist        [][][]float64
	classCounts []int
	n           int
}

// NewTrainStats returns empty statistics for training over the given schema,
// ready for AddBatch. The config is validated and defaulted once here; use
// the same config on every shard and at Finalize.
func NewTrainStats(s *dataset.Schema, cfg Config) (*TrainStats, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	parts, err := partitions(s, cfg.Intervals)
	if err != nil {
		return nil, err
	}
	k := s.NumClasses()
	nAttrs := s.NumAttrs()

	// ByClass-reconstructed attributes accumulate Collector statistics on
	// the perturbed-value grid; all other (attribute, class) cells bin
	// directly on the domain partition.
	useRecon := make([]bool, nAttrs)
	reconParts := make(map[int]reconstruct.Partition)
	if cfg.Mode == core.ByClass {
		for j := range parts {
			if _, ok := cfg.Noise[j]; ok {
				useRecon[j] = true
				reconParts[j] = parts[j]
			}
		}
	}
	var stats *reconstruct.StreamStats
	if len(reconParts) > 0 {
		stats, err = reconstruct.NewStreamStats(s, reconParts, cfg.Noise)
		if err != nil {
			return nil, err
		}
	}
	hist := make([][][]float64, k)
	for c := 0; c < k; c++ {
		hist[c] = make([][]float64, nAttrs)
		for j := 0; j < nAttrs; j++ {
			if !useRecon[j] {
				hist[c][j] = make([]float64, parts[j].K)
			}
		}
	}
	return &TrainStats{
		cfg:         cfg,
		schema:      s,
		parts:       parts,
		useRecon:    useRecon,
		stats:       stats,
		hist:        hist,
		classCounts: make([]int, k),
	}, nil
}

// AddBatch folds one record batch into the statistics. The reconstructed
// attributes are binned by StreamStats.AddBatch, one task per attribute;
// the direct cells are binned here, serially.
func (t *TrainStats) AddBatch(b *stream.Batch) error {
	// StreamStats.AddBatch runs the same validation internally; don't scan
	// the batch twice.
	if t.stats != nil {
		if err := t.stats.AddBatch(b); err != nil {
			return err
		}
	} else if err := stream.CheckBatch(t.schema, b); err != nil {
		return err
	}
	for i := 0; i < b.N(); i++ {
		row := b.Row(i)
		label := b.Labels[i]
		t.classCounts[label]++
		for j := range t.parts {
			if !t.useRecon[j] {
				t.hist[label][j][t.parts[j].Bin(row[j])]++
			}
		}
	}
	t.n += b.N()
	return nil
}

// N returns the number of records accumulated so far.
func (t *TrainStats) N() int { return t.n }

// Merge folds another shard's statistics into t. Both must have been built
// with NewTrainStats over the same schema and config.
func (t *TrainStats) Merge(o *TrainStats) error {
	if len(t.parts) != len(o.parts) || len(t.classCounts) != len(o.classCounts) {
		return fmt.Errorf("bayes: merging stats over different schema shapes (%d/%d attrs, %d/%d classes)",
			len(t.parts), len(o.parts), len(t.classCounts), len(o.classCounts))
	}
	for j := range t.parts {
		if t.parts[j] != o.parts[j] || t.useRecon[j] != o.useRecon[j] {
			return fmt.Errorf("bayes: merging stats with different discretization of attribute %d", j)
		}
	}
	if (t.stats == nil) != (o.stats == nil) {
		return errors.New("bayes: merging stats with and without reconstruction collectors")
	}
	if t.stats != nil {
		if err := t.stats.Merge(o.stats); err != nil {
			return err
		}
	}
	for c := range t.hist {
		for j := range t.hist[c] {
			for b, v := range o.hist[c][j] {
				t.hist[c][j][b] += v
			}
		}
	}
	for c, cnt := range o.classCounts {
		t.classCounts[c] += cnt
	}
	t.n += o.n
	return nil
}

// Finalize turns the accumulated statistics into a classifier: priors from
// the class counts, direct cells normalized with Laplace smoothing
// (DefaultSmoothing), and each reconstructed cell run once through the
// banded kernel on its merged collector counts, stopped at
// core.DefaultReconEpsilon. Each (attribute, class) cell is a task of its
// own at GOMAXPROCS workers. The statistics are only read, so Finalize may
// run again, and State after it is still a valid shard state.
func (t *TrainStats) Finalize() (*Classifier, error) {
	if t.n == 0 {
		return nil, errors.New("bayes: empty training stream")
	}
	cfg := t.cfg
	k := len(t.classCounts)
	nAttrs := len(t.parts)
	clf := &Classifier{
		Mode:       cfg.Mode,
		Schema:     t.schema,
		Priors:     make([]float64, k),
		Cond:       make([][][]float64, k),
		Partitions: t.parts,
	}
	for c := 0; c < k; c++ {
		clf.Priors[c] = (float64(t.classCounts[c]) + DefaultSmoothing) / (float64(t.n) + DefaultSmoothing*float64(k))
		clf.Cond[c] = make([][]float64, nAttrs)
	}
	err := parallel.ForEach(nAttrs*k, 0, func(i int) error {
		j, c := i/k, i%k
		var dist []float64
		if t.useRecon[j] {
			col := t.stats.ClassCollector(j, c)
			if col.N() > 0 {
				// The cells already run in parallel, so each kernel runs
				// on one worker.
				res, err := col.Reconstruct(reconstruct.Config{
					Algorithm: cfg.ReconAlgorithm,
					Epsilon:   core.DefaultReconEpsilon,
					Workers:   1,
				})
				if err != nil {
					return fmt.Errorf("bayes: reconstructing attribute %d class %d: %w", j, c, err)
				}
				dist = smooth(res.P, float64(col.N()))
			} else {
				dist = distFromCounts(make([]float64, t.parts[j].K), 0)
			}
		} else {
			dist = distFromCounts(t.hist[c][j], float64(t.classCounts[c]))
		}
		clf.Cond[c][j] = dist
		return nil
	})
	if err != nil {
		return nil, err
	}
	return clf, nil
}

// TrainStatsState is the gzipped-JSON wire form of TrainStats exchanged by
// the subprocess shard protocol: only aggregated interval counts cross the
// wire, never individual records.
type TrainStatsState struct {
	// Hist is the direct-binned count table, [class][attribute][interval];
	// ByClass-reconstructed attributes carry empty rows here.
	Hist [][][]float64 `json:"hist"`
	// ClassCounts is the number of records seen per class.
	ClassCounts []int `json:"class_counts"`
	// N is the total record count.
	N int `json:"n"`
	// Recon holds the collector statistics of reconstructed cells, if any.
	Recon *reconstruct.StreamStatsState `json:"recon,omitempty"`
}

// State captures the statistics for serialization.
func (t *TrainStats) State() TrainStatsState {
	st := TrainStatsState{
		Hist:        make([][][]float64, len(t.hist)),
		ClassCounts: append([]int(nil), t.classCounts...),
		N:           t.n,
	}
	for c := range t.hist {
		st.Hist[c] = make([][]float64, len(t.hist[c]))
		for j := range t.hist[c] {
			st.Hist[c][j] = append([]float64(nil), t.hist[c][j]...)
		}
	}
	if t.stats != nil {
		rs := t.stats.State()
		st.Recon = &rs
	}
	return st
}

// NewTrainStatsFromState reconstitutes shard statistics from their wire
// state, validating them against the schema and config. A state that no
// honest shard could have produced is rejected: class counts must be
// non-negative and sum to N without overflowing, and every direct-binned
// histogram row must hold non-negative whole counts summing to its class's
// count, since AddBatch adds exactly one count per record to each such row.
// Likewise the collectors of every reconstructed attribute must sit on the
// config's partition of it and hold their class's count, and the collector
// statistics must carry the same class counts and N as the state.
func NewTrainStatsFromState(s *dataset.Schema, cfg Config, state TrainStatsState) (*TrainStats, error) {
	t, err := NewTrainStats(s, cfg)
	if err != nil {
		return nil, err
	}
	if len(state.Hist) != len(t.hist) || len(state.ClassCounts) != len(t.classCounts) {
		return nil, fmt.Errorf("bayes: state has %d classes in hist, %d in class counts, schema has %d",
			len(state.Hist), len(state.ClassCounts), len(t.classCounts))
	}
	n := 0
	for c, cnt := range state.ClassCounts {
		if cnt < 0 {
			return nil, fmt.Errorf("bayes: state class %d has negative count %d", c, cnt)
		}
		if cnt > math.MaxInt-n {
			return nil, fmt.Errorf("bayes: state class counts overflow their sum at class %d", c)
		}
		n += cnt
	}
	if n != state.N {
		return nil, fmt.Errorf("bayes: state N is %d but its class counts sum to %d", state.N, n)
	}
	for c := range state.Hist {
		if len(state.Hist[c]) != len(t.parts) {
			return nil, fmt.Errorf("bayes: state class %d has %d attributes, schema has %d", c, len(state.Hist[c]), len(t.parts))
		}
		for j := range state.Hist[c] {
			want := 0
			if !t.useRecon[j] {
				want = t.parts[j].K
			}
			if len(state.Hist[c][j]) != want {
				return nil, fmt.Errorf("bayes: state class %d attribute %d has %d intervals, want %d", c, j, len(state.Hist[c][j]), want)
			}
			var sum float64
			for b, v := range state.Hist[c][j] {
				if !(v >= 0) || v != math.Trunc(v) || math.IsInf(v, 0) {
					return nil, fmt.Errorf("bayes: state class %d attribute %d interval %d holds %v, not a count", c, j, b, v)
				}
				sum += v
			}
			if want > 0 && sum != float64(state.ClassCounts[c]) {
				return nil, fmt.Errorf("bayes: state class %d attribute %d counts sum to %v, class count is %d", c, j, sum, state.ClassCounts[c])
			}
			copy(t.hist[c][j], state.Hist[c][j])
		}
	}
	if (state.Recon == nil) != (t.stats == nil) {
		return nil, errors.New("bayes: state and config disagree on reconstruction collectors")
	}
	if state.Recon != nil {
		if state.Recon.N != state.N || !slices.Equal(state.Recon.ClassCounts, state.ClassCounts) {
			return nil, fmt.Errorf("bayes: state collectors count %v records per class (n=%d), its class counts are %v (n=%d)",
				state.Recon.ClassCounts, state.Recon.N, state.ClassCounts, state.N)
		}
		stats, err := reconstruct.NewStreamStatsFromState(s, t.cfg.Noise, *state.Recon)
		if err != nil {
			return nil, err
		}
		for j, recon := range t.useRecon {
			if !recon {
				continue
			}
			for c, cnt := range state.ClassCounts {
				col := stats.ClassCollector(j, c)
				if col == nil {
					return nil, fmt.Errorf("bayes: state lacks collectors for reconstructed attribute %d", j)
				}
				if p := col.Partition(); p != t.parts[j] {
					return nil, fmt.Errorf("bayes: state class %d collector of attribute %d sits on %d intervals over [%v, %v], the model's partition has %d over [%v, %v]",
						c, j, p.K, p.Lo, p.Hi, t.parts[j].K, t.parts[j].Lo, t.parts[j].Hi)
				}
				if col.N() != cnt {
					return nil, fmt.Errorf("bayes: state class %d collector of attribute %d holds %d records, class count is %d", c, j, col.N(), cnt)
				}
			}
		}
		t.stats = stats
	}
	copy(t.classCounts, state.ClassCounts)
	t.n = n
	return t, nil
}
