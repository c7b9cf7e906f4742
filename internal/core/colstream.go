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
// SpillShard's streaming pass builds SPRINT-style columnar attribute lists
// in fixed-size segments spilled to files — binning unperturbed attributes
// on the fly and parking perturbed raw columns on disk — then
// MergeShardSpills reconstructs and re-assigns each perturbed attribute one
// column at a time, removing its raw column once it is re-binned, and grows
// the tree from the spilled lists through a bounded segment cache
// (tree.SpillSource). Peak memory is one raw column per reconstruction
// worker plus the class list, the live rowID lists, and the cache budget —
// independent of how many attributes the table has and, for the column
// store, of how many records flowed through.
//
// The trained classifier is byte-identical to Train on the materialized
// table at every worker count: the spill codec round-trips values exactly,
// reconstruction and ordered re-assignment run the very same per-column
// code, and the columnar tree engine is shared with the in-memory path.
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

// spillCol is one attribute's spill state. Direct-binned attributes write
// interval indices straight into binFile during the streaming pass;
// perturbed attributes park raw values in rawFile, which the merge consumes:
// it re-bins them into a binFile of its own and then drops rawFile.
type spillCol struct {
	direct bool

	rawFile  *os.File
	rawIdx   []stream.Segment
	binFile  *os.File
	binIndex []stream.Segment

	// pass-1 accumulation buffers (one segment's worth)
	fbuf []float64
	ibuf []int
	fw   *stream.SegmentWriter // over rawFile or binFile
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
// the class list in memory, and spills every attribute columnwise on the
// tree.SegLen grid — interval indices for attributes the mode bins
// directly, raw perturbed values for attributes awaiting reconstruction.
func spillColumns(src stream.Source, parts []reconstruct.Partition, cfg Config, sp *spill) ([]int, error) {
	s := src.Schema()
	nAttrs := s.NumAttrs()
	sp.cols = make([]*spillCol, nAttrs)
	for j := 0; j < nAttrs; j++ {
		c := &spillCol{}
		_, perturbed := cfg.Noise[j]
		c.direct = !cfg.Mode.NeedsNoise() || !perturbed
		var err error
		if c.direct {
			c.binFile, err = sp.create(j, "bins")
			c.fw = stream.NewSegmentWriter(c.binFile)
			c.ibuf = make([]int, 0, tree.SegLen)
		} else {
			c.rawFile, err = sp.create(j, "vals")
			c.fw = stream.NewSegmentWriter(c.rawFile)
			c.fbuf = make([]float64, 0, tree.SegLen)
		}
		if err != nil {
			return nil, err
		}
		sp.cols[j] = c
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
			for j := 0; j < nAttrs; j++ {
				c := sp.cols[j]
				if c.direct {
					c.ibuf = append(c.ibuf, parts[j].Bin(row[j]))
					if len(c.ibuf) == tree.SegLen {
						if err := c.fw.WriteInts(c.ibuf); err != nil {
							return nil, err
						}
						c.ibuf = c.ibuf[:0]
					}
				} else {
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
	}
	// Flush ragged tails and capture the indices.
	for _, c := range sp.cols {
		if c.direct {
			if len(c.ibuf) > 0 {
				if err := c.fw.WriteInts(c.ibuf); err != nil {
					return nil, err
				}
			}
			c.binIndex = c.fw.Index()
			c.ibuf = nil
		} else {
			if len(c.fbuf) > 0 {
				if err := c.fw.WriteFloats(c.fbuf); err != nil {
					return nil, err
				}
			}
			c.rawIdx = c.fw.Index()
			c.fbuf = nil
		}
		c.fw = nil
	}
	return labels, nil
}

// rebin is MergeShardSpills' reconstruct-and-rebin step: it reads perturbed
// attribute j's raw column from raw into one n-length slice, reconstructs
// and re-assigns it with exactly the per-column code of the in-memory path
// (globalColumns/byClassColumns), so the interval assignments match it bit
// for bit, and writes them to a new bins file of sp on the tree.SegLen grid,
// recorded in c.
func (sp *spill) rebin(j int, c *spillCol, raw *stream.SegmentReader, labels []int, classes int, part reconstruct.Partition, cfg Config) error {
	if raw.N() != len(labels) {
		return fmt.Errorf("core: spilled column %d holds %d values, the class list has %d records", j, raw.N(), len(labels))
	}
	values := make([]float64, len(labels))
	at := 0
	for seg := 0; seg < raw.Segments(); seg++ {
		n := raw.Count(seg)
		if err := raw.ReadFloats(seg, values[at:at+n]); err != nil {
			return err
		}
		at += n
	}
	col, err := reassignColumn(j, values, labels, classes, part, cfg)
	if err != nil {
		return err
	}
	if c.binFile, err = sp.create(j, "bins"); err != nil {
		return err
	}
	w := stream.NewSegmentWriter(c.binFile)
	for lo := 0; lo < len(col); lo += tree.SegLen {
		if err := w.WriteInts(col[lo:min(lo+tree.SegLen, len(col))]); err != nil {
			return err
		}
	}
	c.binIndex = w.Index()
	return nil
}

// reassignColumn maps one perturbed raw column to interval assignments
// according to the training mode — the streaming twin of one
// globalColumns/byClassColumns task, sharing assignPerturbed with them so
// the two paths cannot drift.
func reassignColumn(j int, values []float64, labels []int, classes int, part reconstruct.Partition, cfg Config) ([]int, error) {
	m := cfg.Noise[j]
	switch cfg.Mode {
	case Global:
		return assignPerturbed(values, part, m, cfg, fmt.Sprintf("attribute %d", j))
	case ByClass:
		sizes := make([]int, classes)
		for _, l := range labels {
			sizes[l]++
		}
		col := make([]int, len(values))
		for cl, size := range sizes {
			if size == 0 {
				continue
			}
			classVals, rowIdx := make([]float64, 0, size), make([]int, 0, size)
			for r, l := range labels {
				if l == cl {
					classVals = append(classVals, values[r])
					rowIdx = append(rowIdx, r)
				}
			}
			bins, err := assignPerturbed(classVals, part, m, cfg, fmt.Sprintf("attribute %d class %d", j, cl))
			if err != nil {
				return nil, err
			}
			for i, row := range rowIdx {
				col[row] = bins[i]
			}
		}
		return col, nil
	default:
		return nil, fmt.Errorf("core: mode %v has no reconstruction step", cfg.Mode)
	}
}
