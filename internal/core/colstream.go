package core

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ppdm/internal/parallel"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
	"ppdm/internal/tree"
)

// TrainStream is the out-of-core counterpart of Train for the decision-tree
// learner: it consumes the training set as a record stream and never
// materializes the table. One streaming pass builds SPRINT-style columnar
// attribute lists in fixed-size segments spilled to files — binning
// unperturbed attributes on the fly and parking perturbed raw columns on
// disk — then each perturbed attribute is reconstructed and re-assigned one
// column at a time, and the tree grows from the spilled lists through a
// bounded segment cache (tree.SpillSource). Peak memory is one raw column
// per reconstruction worker plus the class list, the live rowID lists, and
// the cache budget — independent of how many attributes the table has and,
// for the column store, of how many records flowed through.
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
	if src == nil {
		return nil, errors.New("core: nil training stream")
	}
	if cfg.Mode == Local {
		return nil, errors.New("core: Local mode trains from node-local raw values and needs the materialized table; use Train")
	}
	// The adaptive leaf minimum scales with the training-set size, which a
	// stream only reveals after the spill pass; remember whether it was
	// requested and resolve it then.
	adaptiveLeaf := cfg.Tree.MinLeaf == 0
	cfg, err := cfg.normalized(1)
	if err != nil {
		return nil, err
	}
	s := src.Schema()
	parts, err := attrPartitions(s, cfg.Intervals)
	if err != nil {
		return nil, err
	}

	dir, err := os.MkdirTemp(cfg.SpillDir, "ppdm-spill-*")
	if err != nil {
		return nil, fmt.Errorf("core: creating spill directory: %w", err)
	}
	defer os.RemoveAll(dir)

	sp := &spill{dir: dir}
	defer sp.closeAll()

	labels, err := spillColumns(src, parts, cfg, sp)
	if err != nil {
		return nil, err
	}
	n := len(labels)
	if n == 0 {
		return nil, errors.New("core: empty training stream")
	}
	if adaptiveLeaf {
		cfg.Tree.MinLeaf = adaptiveMinLeaf(n)
	}

	if err := assignSpilledColumns(labels, s.NumClasses(), parts, cfg, sp); err != nil {
		return nil, err
	}

	readers := make([]*stream.SegmentReader, s.NumAttrs())
	bins := make([]int, s.NumAttrs())
	for j := range readers {
		c := sp.cols[j]
		readers[j] = stream.NewSegmentReader(c.binFile, c.binIndex)
		bins[j] = parts[j].K
	}
	treeSrc, err := tree.NewSpillSource(readers, bins, labels, s.NumClasses(), cfg.ColumnCacheSegments)
	if err != nil {
		return nil, err
	}
	tr, err := tree.Grow(treeSrc, cfg.Tree)
	if err != nil {
		return nil, err
	}
	return (&Classifier{Mode: cfg.Mode, Tree: tr, Schema: s, Partitions: parts}).initFlat(), nil
}

// spill tracks the per-attribute segment files of one TrainStream run.
type spill struct {
	dir  string
	cols []*spillCol
}

// spillCol is one attribute's spill state. Direct-binned attributes write
// interval indices straight into binFile during the streaming pass;
// perturbed attributes park raw values in rawFile first and gain binFile
// during re-assignment.
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

// assignSpilledColumns runs the reconstruction-and-reassignment step for
// every perturbed attribute, one column in memory at a time (columns are
// processed in parallel bounded by Workers, so peak raw-column memory is
// Workers × one column), dropping each raw file once it has been binned.
func assignSpilledColumns(labels []int, classes int, parts []reconstruct.Partition, cfg Config, sp *spill) error {
	var work []int
	for j, c := range sp.cols {
		if !c.direct {
			work = append(work, j)
		}
	}
	return parallel.ForEach(len(work), cfg.Workers, func(i int) error {
		j := work[i]
		c := sp.cols[j]
		raw := stream.NewSegmentReader(c.rawFile, c.rawIdx)
		if err := sp.rebin(j, c, raw, labels, classes, parts[j], cfg); err != nil {
			return err
		}
		// The raw column is dead weight from here on; drop it early so the
		// spill footprint never holds raw and binned copies of every
		// attribute at once.
		name := c.rawFile.Name()
		c.rawFile.Close()
		c.rawFile = nil
		os.Remove(name)
		return nil
	})
}

// rebin is the reconstruct-and-rebin step shared by TrainStream and
// MergeShardSpills: it reads perturbed attribute j's raw column from raw
// into one n-length slice, reconstructs and re-assigns it with exactly the
// per-column code of the in-memory path (globalColumns/byClassColumns), so
// the interval assignments match it bit for bit, and writes them to a new
// bins file of sp on the tree.SegLen grid, recorded in c.
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
		col := make([]int, len(values))
		for cl := 0; cl < classes; cl++ {
			var classVals []float64
			var rowIdx []int
			for r, l := range labels {
				if l == cl {
					classVals = append(classVals, values[r])
					rowIdx = append(rowIdx, r)
				}
			}
			if len(classVals) == 0 {
				continue
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
