package core

import (
	"ppdm/internal/parallel"
	"ppdm/internal/reconstruct"
	"ppdm/internal/tree"
)

// localSource implements the paper's Local mode. It refines ByClass in one
// way: at every tree node, the per-class distribution of each candidate
// split attribute is freshly reconstructed from the perturbed values of just
// the records reaching that node (tree.DistribSource), so split selection
// sees the node-conditional distributions instead of the root marginals.
//
// Everything else is ByClass: the embedded StaticSource holds the root
// ByClass assignment, which routes records and supplies the counts of every
// node NodeDistributions declines. Re-ranking records inside every node is
// tempting but wrong: deconvolution on small, selection-biased subsamples
// hallucinates sharp class separations, and the re-packed assignments
// manufacture pure regions that do not exist in the clean data (observed as
// below-majority test accuracy). The paper reports Local ≈ ByClass with a
// small edge, which is exactly the behaviour this split gives.
//
// Reconstruction at a node is restricted to the attribute's feasible
// sub-domain (the span the grower passes down) and is skipped for nodes or
// classes with too few records to support a meaningful deconvolution.
// Node sub-partitions inherit the root partition's interval width at
// varying offsets, and the shared weight cache keys matrices by that
// canonicalised geometry, so sibling nodes, recurring span shapes and later
// trainings of the same table re-hit matrices instead of rebuilding them.
// The parallel split search invokes NodeDistributions concurrently for
// different attributes, so it allocates fresh result slices per call.
type localSource struct {
	*tree.StaticSource
	// values[attr] is the perturbed column of attribute attr in row order,
	// nil for an unperturbed attribute: the copies Train assigned the root
	// from, so a node's walk reads one column instead of one row slice per
	// record.
	values [][]float64
	parts  []reconstruct.Partition
	cfg    Config
}

// NodeDistributions implements tree.DistribSource: per-class expected
// interval counts of attr at this node, reconstructed from the node's
// perturbed values over the feasible sub-domain. ok is false when the node
// (or any non-empty class in it) is too small, a value is not finite, or
// the attribute is not perturbed; the grower then counts the node's root
// ByClass assignments.
//
// One walk over the node's rows adds every value to its class's collector;
// the classes then reconstruct as index-addressed parallel tasks, so the
// distributions are the same at any worker count.
func (s *localSource) NodeDistributions(attr int, rows []int, span tree.Span) ([][]float64, bool) {
	m, perturbed := s.cfg.Noise[attr]
	if !perturbed || len(rows) < s.cfg.LocalMinRecords || span.Count() < 2 {
		return nil, false
	}
	part := s.parts[attr]
	sub, err := reconstruct.NewPartition(part.LoEdge(span.Lo), part.HiEdge(span.Hi), span.Count())
	if err != nil {
		return nil, false
	}
	byClass := make([]*reconstruct.Collector, s.NumClasses())
	for c := range byClass {
		if byClass[c], err = reconstruct.NewCollector(sub, m); err != nil {
			return nil, false
		}
	}
	labels, values := s.Labels(), s.values[attr]
	for _, r := range rows {
		if byClass[labels[r]].Add(values[r]) != nil {
			return nil, false
		}
	}
	for _, c := range byClass {
		if n := c.N(); n > 0 && n < s.cfg.LocalMinRecords/4 {
			return nil, false
		}
	}

	dist := make([][]float64, len(byClass))
	err = parallel.ForEach(len(byClass), s.cfg.Workers, func(c int) error {
		dist[c] = make([]float64, part.K)
		col := byClass[c]
		if col.N() == 0 {
			return nil
		}
		res, err := col.Reconstruct(reconCfg(s.cfg, sub, m))
		if err != nil {
			return err
		}
		for b, p := range res.P {
			dist[c][span.Lo+b] = p * float64(col.N())
		}
		return nil
	})
	if err != nil {
		return nil, false
	}
	return dist, true
}
