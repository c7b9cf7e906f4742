package core

import (
	"ppdm/internal/dataset"
	"ppdm/internal/reconstruct"
	"ppdm/internal/tree"
)

// localSource implements the paper's Local mode. It refines ByClass in one
// way: at every tree node, the per-class distribution of each candidate
// split attribute is freshly reconstructed from the perturbed values of just
// the records reaching that node (tree.DistribSource), so split selection
// sees the node-conditional distributions instead of the root marginals.
//
// Record routing, however, uses the stable root ByClass assignment
// (tree.Source.Values). Re-ranking records inside every node is tempting but
// wrong: deconvolution on small, selection-biased subsamples hallucinates
// sharp class separations, and the re-packed assignments manufacture pure
// regions that do not exist in the clean data (observed as below-majority
// test accuracy). The paper reports Local ≈ ByClass with a small edge, which
// is exactly the behaviour this split gives.
//
// Reconstruction at a node is restricted to the attribute's feasible
// sub-domain (the span the grower passes down) and is skipped for nodes or
// classes with too few records to support a meaningful deconvolution.
// The source holds no scratch state of its own: the parallel split search
// invokes Values and NodeDistributions concurrently for different
// attributes, so callers supply any reusable buffers (Values' dst) and
// NodeDistributions allocates fresh result slices per call.
type localSource struct {
	table    *dataset.Table
	labels   []int
	parts    []reconstruct.Partition
	cfg      Config
	fallback [][]int // root ByClass assignment, cols[attr][row]
	classes  int
	// wcache is this training run's private transition-matrix cache. Node
	// sub-partitions inherit the root partition's interval width at varying
	// offsets, and the banded kernel keys matrices by canonicalised
	// (width, offset, band) geometry — so sibling nodes and recurring span
	// shapes re-hit entries here instead of rebuilding every matrix, while
	// never evicting the shared cache's recurring root-partition entries.
	wcache *reconstruct.WeightCache
}

// localWeightCacheEntries bounds one Local training run's private
// node-geometry cache. Node matrices are small (span-count × observation
// rows, band-limited), so the bound is generous.
const localWeightCacheEntries = 256

// Len implements tree.Source.
func (s *localSource) Len() int { return s.table.N() }

// NumAttrs implements tree.Source.
func (s *localSource) NumAttrs() int { return len(s.parts) }

// Bins implements tree.Source.
func (s *localSource) Bins(attr int) int { return s.parts[attr].K }

// NumClasses implements tree.Source.
func (s *localSource) NumClasses() int { return s.classes }

// Label implements tree.Source.
func (s *localSource) Label(row int) int { return s.labels[row] }

// Values implements tree.Source: the root ByClass assignment clamped into
// the feasible span.
func (s *localSource) Values(attr int, rows []int, span tree.Span, dst []int) []int {
	if cap(dst) < len(rows) {
		dst = make([]int, len(rows))
	}
	out := dst[:len(rows)]
	fb := s.fallback[attr]
	for i, r := range rows {
		v := fb[r]
		if v < span.Lo {
			v = span.Lo
		}
		if v > span.Hi {
			v = span.Hi
		}
		out[i] = v
	}
	return out
}

// NodeDistributions implements tree.DistribSource: per-class expected
// interval counts of attr at this node, reconstructed from the node's
// perturbed values over the feasible sub-domain. ok is false when the node
// (or any non-empty class in it) is too small, or the attribute is not
// perturbed; the caller then falls back to counting Values.
func (s *localSource) NodeDistributions(attr int, rows []int, span tree.Span) ([][]float64, bool) {
	m, perturbed := s.cfg.Noise[attr]
	if !perturbed || len(rows) < s.cfg.LocalMinRecords || span.Count() < 2 {
		return nil, false
	}
	sizes := make([]int, s.classes)
	for _, r := range rows {
		sizes[s.labels[r]]++
	}
	for _, n := range sizes {
		if n > 0 && n < s.cfg.LocalMinRecords/4 {
			return nil, false
		}
	}
	byClassVals := make([][]float64, s.classes)
	for c, n := range sizes {
		byClassVals[c] = make([]float64, 0, n)
	}
	for _, r := range rows {
		c := s.labels[r]
		byClassVals[c] = append(byClassVals[c], s.table.Row(r)[attr])
	}
	part := s.parts[attr]
	sub, err := reconstruct.NewPartition(part.LoEdge(span.Lo), part.HiEdge(span.Hi), span.Count())
	if err != nil {
		return nil, false
	}

	dist := make([][]float64, s.classes)
	for c := 0; c < s.classes; c++ {
		dist[c] = make([]float64, part.K)
		vals := byClassVals[c]
		if len(vals) == 0 {
			continue
		}
		// Node sub-partitions resolve against the per-training cache: their
		// canonicalised geometries repeat across nodes and subtrees, and the
		// private cache keeps them from evicting the shared cache's
		// recurring root-partition entries.
		rcfg := reconCfg(s.cfg, sub, m)
		rcfg.Cache = s.wcache
		res, err := reconstruct.Reconstruct(vals, rcfg)
		if err != nil {
			return nil, false
		}
		for b, p := range res.P {
			dist[c][span.Lo+b] = p * float64(len(vals))
		}
	}
	return dist, true
}
