package tree

import "ppdm/internal/parallel"

// split describes a candidate binary split: attribute attr, records with
// interval index <= cut go left.
type split struct {
	attr, cut int
	gain      float64
}

// findBestSplit evaluates every (attribute, boundary) candidate with the
// gini index and returns the best; attr is -1 if no candidate satisfies the
// MinLeaf constraint. Only boundaries inside the attribute's feasible span
// are considered.
//
// Attributes are searched in parallel (bounded by workers) and their
// per-attribute winners reduced in ascending attribute order with a
// strictly-greater comparison — the same tie-breaking (lowest attribute,
// then lowest cut) as a serial attr-major/cut-minor scan, so the chosen
// split is independent of the worker count. Errors can only originate from
// columnar storage (disk reads of a spilled attribute list).
func findBestSplit(src Source, rows []int, spans []Span, parentCounts []int, minLeaf, workers int) (split, error) {
	k := src.NumClasses()
	n := len(rows)
	parent := make([]float64, k)
	for c, v := range parentCounts {
		parent[c] = float64(v)
	}
	parentGini := giniOf(parent, float64(n))

	// Parallelizing tiny nodes costs more in scheduling than it saves —
	// below the threshold the search runs inline on one goroutine. The
	// shortcut is skipped for DistribSource: its per-attribute work is a
	// full per-class reconstruction, expensive at any node size.
	const parallelMinRows = 2048
	_, isDistrib := src.(DistribSource)
	if n < parallelMinRows && !isDistrib {
		workers = 1
	}
	results := make([]split, src.NumAttrs())
	err := parallel.ForEach(src.NumAttrs(), workers, func(attr int) error {
		s, err := bestSplitForAttr(src, attr, rows, spans[attr], parentGini, minLeaf)
		results[attr] = s
		return err
	})
	if err != nil {
		return split{attr: -1}, err
	}

	best := split{attr: -1}
	for _, s := range results {
		if s.attr < 0 {
			continue
		}
		if s.gain > best.gain || (s.gain == best.gain && best.attr == -1) {
			best = s
		}
	}
	return best, nil
}

// bestSplitForAttr finds the best boundary of one attribute.
//
// Per-interval class masses come from walking the attribute's columnar list
// over the node's rows or, when the source implements DistribSource and
// accepts the node, from the source's own fractional per-node distribution
// estimate (the paper's Local mode). The best boundary is then found by a
// prefix scan, so the cost per attribute is O(rows + bins·classes).
func bestSplitForAttr(src Source, attr int, rows []int, span Span, parentGini float64, minLeaf int) (split, error) {
	best := split{attr: -1}
	if span.Count() < 2 {
		return best, nil
	}
	k := src.NumClasses()
	bins := src.Bins(attr)
	// counts[b*k+c] = mass of class c in interval b
	counts := make([]float64, bins*k)
	filled := false
	if ds, hasDistrib := src.(DistribSource); hasDistrib {
		if dist, ok := ds.NodeDistributions(attr, rows, span); ok {
			for c := range dist {
				for b, v := range dist[c] {
					counts[b*k+c] = v
				}
			}
			filled = true
		}
	}
	if !filled {
		if err := colCounts(src.AttrList(attr), rows, src.Labels(), k, counts); err != nil {
			return best, err
		}
	}
	// total mass and per-class totals of this attribute's estimate (may
	// differ slightly from the record counts when fractional)
	attrTotals := make([]float64, k)
	var attrN float64
	for b := 0; b < bins; b++ {
		for c := 0; c < k; c++ {
			attrTotals[c] += counts[b*k+c]
			attrN += counts[b*k+c]
		}
	}
	// prefix scan over boundaries: left = intervals span.Lo..cut
	left := make([]float64, k)
	var nLeft float64
	for cut := span.Lo; cut < span.Hi; cut++ {
		for c := 0; c < k; c++ {
			left[c] += counts[cut*k+c]
			nLeft += counts[cut*k+c]
		}
		nRight := attrN - nLeft
		if nLeft < float64(minLeaf) || nRight < float64(minLeaf) {
			continue
		}
		gl := giniOf(left, nLeft)
		gr := giniOfRight(attrTotals, left, nRight)
		weighted := (nLeft*gl + nRight*gr) / attrN
		gain := parentGini - weighted
		if gain > best.gain || (gain == best.gain && best.attr == -1) {
			best = split{attr: attr, cut: cut, gain: gain}
		}
	}
	return best, nil
}

func giniOf(counts []float64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := c / n
		g -= p * p
	}
	return g
}

// giniOfRight computes gini of (totals − left) without materializing the
// slice.
func giniOfRight(totals, left []float64, n float64) float64 {
	if n <= 0 {
		return 0
	}
	g := 1.0
	for c := range totals {
		p := (totals[c] - left[c]) / n
		g -= p * p
	}
	return g
}
