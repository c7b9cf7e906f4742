package core

import (
	"errors"
	"fmt"
	"io"
	"os"

	"ppdm/internal/dataset"
	"ppdm/internal/parallel"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
	"ppdm/internal/tree"
)

// ShardSpill holds one training shard's pass-1 spill output for the
// decision-tree learner: the per-attribute segment files (interval indices
// for directly-binned attributes, raw perturbed values for attributes
// awaiting reconstruction) plus the shard-local class list. internal/cluster
// deals tree.SegLen-sized record units round-robin across shards, runs
// SpillShard per shard in parallel, and hands the results to
// MergeShardSpills; because the spill grid equals the deal grid, the merged
// column store is byte-identical to what a single-node TrainStream pass over
// the whole stream would have produced.
//
// Callers own the spill until Close; MergeShardSpills reads but does not
// close it.
type ShardSpill struct {
	dir    string
	sp     *spill
	labels []int
	parts  []reconstruct.Partition
	schema *dataset.Schema
}

// SpillShard runs the streaming spill pass of TrainStream over one shard's
// record substream. The source must present the shard's records with
// shard-local Start offsets (0, batch, 2×batch, …) — the cluster dealer
// renumbers them — and, for the merge to reproduce single-node training,
// must consist of whole tree.SegLen record units in global order, with only
// the globally-last unit allowed to be short.
func SpillShard(src stream.Source, cfg Config) (*ShardSpill, error) {
	if src == nil {
		return nil, errors.New("core: nil training stream")
	}
	if cfg.Mode == Local {
		return nil, errors.New("core: Local mode trains from node-local raw values and needs the materialized table; use Train")
	}
	cfg, err := cfg.normalized(1)
	if err != nil {
		return nil, err
	}
	s := src.Schema()
	parts, err := attrPartitions(s, cfg.Intervals)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.SpillDir, "ppdm-shard-*")
	if err != nil {
		return nil, fmt.Errorf("core: creating shard spill directory: %w", err)
	}
	sp := &spill{dir: dir}
	labels, err := spillColumns(src, parts, cfg, sp)
	if err != nil {
		sp.closeAll()
		os.RemoveAll(dir)
		return nil, err
	}
	return &ShardSpill{dir: dir, sp: sp, labels: labels, parts: parts, schema: s}, nil
}

// N returns the number of records spilled into this shard.
func (ss *ShardSpill) N() int { return len(ss.labels) }

// Close releases the shard's spill files and removes its directory. It is
// safe to call more than once.
func (ss *ShardSpill) Close() error {
	if ss.sp != nil {
		ss.sp.closeAll()
		ss.sp = nil
	}
	if ss.dir != "" {
		err := os.RemoveAll(ss.dir)
		ss.dir = ""
		return err
	}
	return nil
}

// MergeShardSpills completes distributed tree training: it interleaves the
// shards' spilled columns back into global record order on the tree.SegLen
// unit grid (unit u lives in shard u%N), reconstructs and re-assigns each
// perturbed attribute once on the full merged column — the very same
// per-column code as single-node training, so the interval assignments
// cannot drift — and grows the tree from the merged column store. The
// result is byte-identical to TrainStream over the unpartitioned stream.
//
// The shards must all come from SpillShard with the same schema and config;
// they remain open (and are still owned by the caller) after the merge.
func MergeShardSpills(shards []*ShardSpill, cfg Config) (*Classifier, error) {
	if len(shards) == 0 {
		return nil, errors.New("core: no shards to merge")
	}
	adaptiveLeaf := cfg.Tree.MinLeaf == 0
	cfg, err := cfg.normalized(1)
	if err != nil {
		return nil, err
	}
	s := shards[0].schema
	parts := shards[0].parts
	n := 0
	for i, sh := range shards {
		if sh.sp == nil {
			return nil, fmt.Errorf("core: shard %d is closed", i)
		}
		if sh.schema.NumAttrs() != s.NumAttrs() || sh.schema.NumClasses() != s.NumClasses() {
			return nil, fmt.Errorf("core: shard %d schema (%d attrs, %d classes) differs from shard 0 (%d attrs, %d classes)",
				i, sh.schema.NumAttrs(), sh.schema.NumClasses(), s.NumAttrs(), s.NumClasses())
		}
		for j := range parts {
			if sh.parts[j] != parts[j] {
				return nil, fmt.Errorf("core: shard %d discretizes attribute %d differently", i, j)
			}
		}
		n += len(sh.labels)
	}
	if n == 0 {
		return nil, errors.New("core: empty training stream")
	}
	if adaptiveLeaf {
		cfg.Tree.MinLeaf = adaptiveMinLeaf(n)
	}

	units := (n + tree.SegLen - 1) / tree.SegLen
	labels, err := interleaveLabels(shards, n, units)
	if err != nil {
		return nil, err
	}

	// Re-binned perturbed columns land in their own scratch directory; the
	// shard directories themselves are never written to.
	dir, err := os.MkdirTemp(cfg.SpillDir, "ppdm-merge-*")
	if err != nil {
		return nil, fmt.Errorf("core: creating merge spill directory: %w", err)
	}
	defer os.RemoveAll(dir)
	msp := &spill{dir: dir, cols: make([]*spillCol, s.NumAttrs())}
	defer msp.closeAll()

	readers := make([]*stream.SegmentReader, s.NumAttrs())
	bins := make([]int, s.NumAttrs())
	var perturbed []int
	rawReaders := make([]*stream.SegmentReader, s.NumAttrs())
	for j := 0; j < s.NumAttrs(); j++ {
		bins[j] = parts[j].K
		r, direct, err := mergedColumn(shards, j, n, units)
		if err != nil {
			return nil, err
		}
		if direct {
			readers[j] = r
		} else {
			rawReaders[j] = r
			perturbed = append(perturbed, j)
		}
	}

	// Reconstruct and re-assign each merged perturbed column, in parallel
	// bounded by Workers, through the same step as TrainStream.
	err = parallel.ForEach(len(perturbed), cfg.Workers, func(i int) error {
		j := perturbed[i]
		msp.cols[j] = &spillCol{}
		return msp.rebin(j, msp.cols[j], rawReaders[j], labels, s.NumClasses(), parts[j], cfg)
	})
	if err != nil {
		return nil, err
	}
	for _, j := range perturbed {
		readers[j] = stream.NewSegmentReader(msp.cols[j].binFile, msp.cols[j].binIndex)
	}

	treeSrc, err := tree.NewSpillSource(readers, bins, labels, s.NumClasses(), cfg.ColumnCacheSegments)
	if err != nil {
		return nil, err
	}
	tr, err := tree.Grow(treeSrc, cfg.Tree)
	if err != nil {
		return nil, err
	}
	return newClassifier(cfg.Mode, tr, s, parts)
}

// unitSize returns the record count of global deal unit u when n records
// fill the given number of units: tree.SegLen for every unit but the last.
func unitSize(u, n, units int) int {
	if u == units-1 {
		return n - u*tree.SegLen
	}
	return tree.SegLen
}

// interleaveLabels reassembles the global class list from the shards' local
// lists on the round-robin unit grid, validating the dealing as it goes.
func interleaveLabels(shards []*ShardSpill, n, units int) ([]int, error) {
	labels := make([]int, 0, n)
	off := make([]int, len(shards))
	for u := 0; u < units; u++ {
		s := u % len(shards)
		cnt := unitSize(u, n, units)
		if off[s]+cnt > len(shards[s].labels) {
			return nil, fmt.Errorf("core: shard %d holds %d records, unit %d needs %d more — shards were not dealt on the %d-record unit grid",
				s, len(shards[s].labels), u, off[s]+cnt-len(shards[s].labels), tree.SegLen)
		}
		labels = append(labels, shards[s].labels[off[s]:off[s]+cnt]...)
		off[s] += cnt
	}
	for s := range shards {
		if off[s] != len(shards[s].labels) {
			return nil, fmt.Errorf("core: shard %d holds %d records, the unit grid accounts for %d — shards were not dealt on the %d-record unit grid",
				s, len(shards[s].labels), off[s], tree.SegLen)
		}
	}
	return labels, nil
}

// mergedColumn builds a SegmentReader presenting attribute j's per-shard
// segment files as one column in global record order: the shard files are
// concatenated into one logical byte space and the global index interleaves
// each unit's segment (unit u is local segment u/N of shard u%N) with its
// offset shifted to the shard's base. It reports whether the column holds
// directly-binned interval indices or raw perturbed values.
func mergedColumn(shards []*ShardSpill, j, n, units int) (*stream.SegmentReader, bool, error) {
	direct := shards[0].sp.cols[j].direct
	files := make([]io.ReaderAt, len(shards))
	sizes := make([]int64, len(shards))
	starts := make([]int64, len(shards))
	var total int64
	for s, sh := range shards {
		c := sh.sp.cols[j]
		if c.direct != direct {
			return nil, false, fmt.Errorf("core: shard %d spilled attribute %d %s, shard 0 spilled it %s — configs differ",
				s, j, spillKind(c.direct), spillKind(direct))
		}
		f, idx := c.binFile, c.binIndex
		if !direct {
			f, idx = c.rawFile, c.rawIdx
		}
		files[s] = f
		for _, e := range idx {
			sizes[s] = e.Off + e.Size
		}
		starts[s] = total
		total += sizes[s]
	}
	concat, err := stream.NewConcatReaderAt(files, sizes)
	if err != nil {
		return nil, false, err
	}
	merged := make([]stream.Segment, 0, units)
	for u := 0; u < units; u++ {
		s := u % len(shards)
		c := shards[s].sp.cols[j]
		idx := c.binIndex
		if !direct {
			idx = c.rawIdx
		}
		l := u / len(shards)
		if l >= len(idx) {
			return nil, false, fmt.Errorf("core: shard %d attribute %d has %d segments, unit %d needs segment %d", s, j, len(idx), u, l)
		}
		e := idx[l]
		if e.Count != unitSize(u, n, units) {
			return nil, false, fmt.Errorf("core: shard %d attribute %d segment %d holds %d values, unit %d holds %d — shards were not dealt on the %d-record unit grid",
				s, j, l, e.Count, u, unitSize(u, n, units), tree.SegLen)
		}
		e.Off += starts[s]
		merged = append(merged, e)
	}
	return stream.NewSegmentReader(concat, merged), direct, nil
}

// spillKind names a spill column's encoding for error messages.
func spillKind(direct bool) string {
	if direct {
		return "directly binned"
	}
	return "as raw values"
}
