package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"ppdm/internal/dataset"
	"ppdm/internal/parallel"
	"ppdm/internal/stream"
	"ppdm/internal/tree"
)

// ShardSpill holds one training shard's pass-1 spill output for the
// decision-tree learner: one segment file of raw values per attribute plus
// the shard-local class list. The spill does not depend on the training
// mode or the partitions; the merge assigns every column under its own
// config. internal/cluster deals tree.SegLen-sized record units round-robin
// across shards, runs SpillShard per shard in parallel, and hands the
// results to MergeShardSpills; because the spill grid equals the deal grid,
// the merged column store is the one a single shard holding the whole
// stream would give, which is how TrainStream trains.
//
// MergeShardSpills consumes the raw columns: it removes each one as soon as
// its attribute is re-binned, so a second merge of the same shards fails,
// naming the consumed column. Callers still own the spill and Close it,
// which removes the shard's directory.
type ShardSpill struct {
	dir    string
	sp     *spill
	labels []int
	schema *dataset.Schema
}

// errLocalStream rejects Local on the out-of-core path.
var errLocalStream = errors.New("core: Local mode trains from node-local raw values and needs the materialized table; use Train")

// SpillShard runs the streaming spill pass of out-of-core training over one
// shard's record substream (TrainStream's single shard is the whole
// stream), writing every attribute's raw values. It validates cfg and uses
// only its SpillDir. The source must present the shard's records with
// shard-local Start offsets (0, batch, 2×batch, …) — the cluster dealer
// renumbers them — and, for the merge to reproduce single-node training,
// must consist of whole tree.SegLen record units in global order, with only
// the globally-last unit allowed to be short.
func SpillShard(src stream.Source, cfg Config) (*ShardSpill, error) {
	if src == nil {
		return nil, errors.New("core: nil training stream")
	}
	if cfg.Mode == Local {
		return nil, errLocalStream
	}
	if _, err := cfg.normalized(1); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.SpillDir, "ppdm-shard-*")
	if err != nil {
		return nil, fmt.Errorf("core: creating shard spill directory: %w", err)
	}
	sp := &spill{dir: dir}
	labels, err := spillColumns(src, sp)
	if err != nil {
		sp.closeAll()
		os.RemoveAll(dir)
		return nil, err
	}
	return &ShardSpill{dir: dir, sp: sp, labels: labels, schema: src.Schema()}, nil
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

// MergeShardSpills completes out-of-core tree training: it interleaves the
// shards' spilled columns back into global record order on the tree.SegLen
// unit grid (unit u lives in shard u%N), assigns every attribute once on
// the full merged column through assignColumn — the call in-memory Train
// makes, so the interval assignments cannot drift — and grows the tree from
// the merged column store. The result is byte-identical to Train on the
// materialized table, at any shard count.
//
// Each merged raw column is read exactly once; after re-binning attribute
// j, the merge closes and removes every shard's raw file for j, so no raw
// column outlives its re-binning. The shards must all come from SpillShard
// with the same schema; cfg alone decides how their columns are assigned.
// The caller still owns the shards and must Close them after the merge.
func MergeShardSpills(shards []*ShardSpill, cfg Config) (*Classifier, error) {
	if len(shards) == 0 {
		return nil, errors.New("core: no shards to merge")
	}
	if cfg.Mode == Local {
		return nil, errLocalStream
	}
	adaptiveLeaf := cfg.Tree.MinLeaf == 0
	cfg, err := cfg.normalized(1)
	if err != nil {
		return nil, err
	}
	s := shards[0].schema
	parts, err := attrPartitions(s, cfg.Intervals)
	if err != nil {
		return nil, err
	}
	n := 0
	for i, sh := range shards {
		if sh.sp == nil {
			return nil, fmt.Errorf("core: shard %d is closed", i)
		}
		// Equal attributes give every shard's raw values the domains the
		// partitions are built on.
		if !slices.Equal(sh.schema.Attrs, s.Attrs) || sh.schema.NumClasses() != s.NumClasses() {
			return nil, fmt.Errorf("core: shard %d was spilled under a schema other than shard 0's", i)
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
	raw := make([]*stream.SegmentReader, s.NumAttrs())
	for j := range raw {
		if raw[j], err = mergedColumn(shards, j, n, units); err != nil {
			return nil, err
		}
	}

	// Re-binned columns land in their own scratch directory; the shard
	// directories themselves are never written to.
	dir, err := os.MkdirTemp(cfg.SpillDir, "ppdm-merge-*")
	if err != nil {
		return nil, fmt.Errorf("core: creating merge spill directory: %w", err)
	}
	defer os.RemoveAll(dir)
	msp := &spill{dir: dir, cols: make([]*spillCol, s.NumAttrs())}
	defer msp.closeAll()

	// Assign each merged column, in parallel bounded by Workers, so peak
	// raw-column memory is Workers × one column. The raw columns are dead
	// weight once re-binned; dropping them right away keeps the spill from
	// holding raw and binned copies of every attribute at once.
	rows := classRows(labels, s.NumClasses())
	readers, err := parallel.Map(len(raw), cfg.Workers, func(j int) (*stream.SegmentReader, error) {
		r, err := msp.rebin(j, raw[j], rows, parts[j], cfg)
		if err != nil {
			return nil, err
		}
		for _, sh := range shards {
			sh.sp.cols[j].dropRaw()
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}
	bins := make([]int, len(parts))
	for j, p := range parts {
		bins[j] = p.K
	}
	treeSrc, err := tree.NewSpillSource(readers, bins, labels, s.NumClasses(), 0)
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
// lists on the round-robin unit grid, validating the dealing as it goes. A
// single shard already holds every unit in global order, so its own list is
// returned without a copy; the merge only reads it.
func interleaveLabels(shards []*ShardSpill, n, units int) ([]int, error) {
	if len(shards) == 1 {
		return shards[0].labels, nil
	}
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
// raw segment files as one column in global record order: the shard files
// are concatenated into one logical byte space and the global index
// interleaves each unit's segment (unit u is local segment u/N of shard
// u%N) with its offset shifted to the shard's base.
func mergedColumn(shards []*ShardSpill, j, n, units int) (*stream.SegmentReader, error) {
	files := make([]io.ReaderAt, len(shards))
	sizes := make([]int64, len(shards))
	starts := make([]int64, len(shards))
	var total int64
	for s, sh := range shards {
		c := sh.sp.cols[j]
		if c.rawFile == nil {
			return nil, fmt.Errorf("core: shard %d attribute %d: raw column already consumed by an earlier merge", s, j)
		}
		files[s] = c.rawFile
		for _, e := range c.rawIdx {
			sizes[s] = e.Off + e.Size
		}
		starts[s] = total
		total += sizes[s]
	}
	concat, err := stream.NewConcatReaderAt(files, sizes)
	if err != nil {
		return nil, err
	}
	merged := make([]stream.Segment, 0, units)
	for u := 0; u < units; u++ {
		s := u % len(shards)
		idx := shards[s].sp.cols[j].rawIdx
		l := u / len(shards)
		if l >= len(idx) {
			return nil, fmt.Errorf("core: shard %d attribute %d has %d segments, unit %d needs segment %d", s, j, len(idx), u, l)
		}
		e := idx[l]
		if e.Count != unitSize(u, n, units) {
			return nil, fmt.Errorf("core: shard %d attribute %d segment %d holds %d values, unit %d holds %d — shards were not dealt on the %d-record unit grid",
				s, j, l, e.Count, u, unitSize(u, n, units), tree.SegLen)
		}
		e.Off += starts[s]
		merged = append(merged, e)
	}
	return stream.NewSegmentReader(concat, merged), nil
}
