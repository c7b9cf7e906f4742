package core

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
	"ppdm/internal/tree"
)

// TrainStream is the out-of-core counterpart of Train for the decision-tree
// learner: it consumes the training set as a record stream and never
// materializes the table. It is the one-shard case of sharded training:
// SpillShard's streaming pass parks every attribute's raw values on disk in
// fixed-size segments, then MergeShardSpills assigns each attribute one
// column at a time through assignColumn, the very step Train runs, writes
// the interval indices as a SPRINT-style columnar attribute list, removes
// the raw column once it is re-binned, and grows the tree from the spilled
// lists through a bounded segment cache (tree.SpillSource). Peak memory is
// one raw column per worker plus the class list and its per-class row
// lists, the live rowID lists, and the cache budget — independent of how
// many attributes the table has and, for the column store, of how many
// records flowed through.
//
// The trained classifier is byte-identical to Train on the materialized
// table at every worker count: the spill codec round-trips values exactly,
// both paths assign columns with the same assignColumn, and the columnar
// tree engine is shared with the in-memory path.
//
// Original, Randomized, Global and ByClass modes are supported. Local is
// not: it re-reconstructs node-conditional distributions from raw perturbed
// values at every tree node, which requires the materialized table.
func TrainStream(src stream.Source, cfg Config) (*Classifier, error) {
	sh, err := SpillShard(src, cfg)
	if err != nil {
		return nil, err
	}
	defer sh.Close()
	return MergeShardSpills([]*ShardSpill{sh}, cfg)
}

// spill tracks the per-attribute segment files of one shard's spill pass,
// or the re-binned columns of one merge.
type spill struct {
	dir  string
	cols []*spillCol
}

// spillCol is one attribute's spill state. A shard's streaming pass parks
// the attribute's raw values in rawFile; the merge consumes them, re-binning
// every shard's rawFile of the attribute into a binFile of its own spill,
// and then drops them.
type spillCol struct {
	rawFile *os.File
	rawIdx  []stream.Segment
	binFile *os.File

	// pass-1 accumulation buffer (one segment's worth) and its writer
	fbuf []float64
	fw   *stream.SegmentWriter
}

func (sp *spill) closeAll() {
	for _, c := range sp.cols {
		if c == nil {
			continue
		}
		if c.rawFile != nil {
			c.rawFile.Close()
		}
		if c.binFile != nil {
			c.binFile.Close()
		}
	}
}

// dropRaw closes and removes the column's raw file once the merge has
// re-binned it. A file left behind by a failed remove still goes with the
// shard directory at ShardSpill.Close, so the errors are not reported.
func (c *spillCol) dropRaw() {
	name := c.rawFile.Name()
	c.rawFile.Close()
	c.rawFile = nil
	os.Remove(name)
}

// create opens a segment file for attribute j with the given suffix.
func (sp *spill) create(j int, suffix string) (*os.File, error) {
	f, err := os.Create(filepath.Join(sp.dir, fmt.Sprintf("attr%d.%s", j, suffix)))
	if err != nil {
		return nil, fmt.Errorf("core: creating spill file for attribute %d: %w", j, err)
	}
	return f, nil
}

// spillColumns is the single streaming pass: it drains the source, keeps
// the class list in memory, and spills every attribute's raw values
// columnwise on the tree.SegLen grid.
func spillColumns(src stream.Source, sp *spill) ([]int, error) {
	s := src.Schema()
	sp.cols = make([]*spillCol, s.NumAttrs())
	for j := range sp.cols {
		f, err := sp.create(j, "vals")
		if err != nil {
			return nil, err
		}
		sp.cols[j] = &spillCol{rawFile: f, fbuf: make([]float64, 0, tree.SegLen), fw: stream.NewSegmentWriter(f)}
	}

	var labels []int
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		if b.Start != len(labels) {
			return nil, fmt.Errorf("core: training batch starts at %d, expected %d", b.Start, len(labels))
		}
		if err := stream.CheckBatch(s, b); err != nil {
			return nil, err
		}
		for i := 0; i < b.N(); i++ {
			row := b.Row(i)
			labels = append(labels, b.Labels[i])
			for j, c := range sp.cols {
				c.fbuf = append(c.fbuf, row[j])
				if len(c.fbuf) == tree.SegLen {
					if err := c.fw.WriteFloats(c.fbuf); err != nil {
						return nil, err
					}
					c.fbuf = c.fbuf[:0]
				}
			}
		}
	}
	// Flush ragged tails and capture the indices.
	for _, c := range sp.cols {
		if len(c.fbuf) > 0 {
			if err := c.fw.WriteFloats(c.fbuf); err != nil {
				return nil, err
			}
		}
		c.rawIdx = c.fw.Index()
		c.fbuf, c.fw = nil, nil
	}
	return labels, nil
}

// rebin is MergeShardSpills' assignment step for attribute j: it reads the
// merged raw column into one slice, assigns it with assignColumn — the call
// in-memory Train makes, so the interval indices match it bit for bit — and
// writes them to a new bins file of sp on the tree.SegLen grid, returning a
// reader over that file.
func (sp *spill) rebin(j int, raw *stream.SegmentReader, classRows [][]int, part reconstruct.Partition, cfg Config) (*stream.SegmentReader, error) {
	values := make([]float64, raw.N())
	at := 0
	for seg := 0; seg < raw.Segments(); seg++ {
		n := raw.Count(seg)
		if err := raw.ReadFloats(seg, values[at:at+n]); err != nil {
			return nil, err
		}
		at += n
	}
	col, err := assignColumn(j, values, classRows, part, cfg)
	if err != nil {
		return nil, err
	}
	f, err := sp.create(j, "bins")
	if err != nil {
		return nil, err
	}
	sp.cols[j] = &spillCol{binFile: f}
	w := stream.NewSegmentWriter(f)
	for lo := 0; lo < len(col); lo += tree.SegLen {
		if err := w.WriteInts(col[lo:min(lo+tree.SegLen, len(col))]); err != nil {
			return nil, err
		}
	}
	return stream.NewSegmentReader(f, w.Index()), nil
}
