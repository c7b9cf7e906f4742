package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// apportion converts a probability vector into integer counts summing to n
// using the largest-remainder method, with ties broken by lower index so the
// result is deterministic.
func apportion(p []float64, n int) []int {
	counts := make([]int, len(p))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(p))
	assigned := 0
	for i, v := range p {
		exact := v * float64(n)
		counts[i] = int(exact)
		assigned += counts[i]
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
	}
	slices.SortStableFunc(rems, func(a, b rem) int { return cmp.Compare(b.frac, a.frac) })
	for i := 0; assigned < n; i++ {
		counts[rems[i%len(rems)].idx]++
		assigned++
	}
	return counts
}

// recordsPerBucket is the mean bucket occupancy orderedAssign aims for: small
// enough that only a few records share a bucket with a block boundary, large
// enough that the bucket counts stay a fraction of the output's size.
const recordsPerBucket = 8

// orderedAssign implements the paper's re-assignment step: given the
// perturbed values of a set of records and the reconstructed distribution p
// over k intervals, it ranks the records by perturbed value and assigns the
// smallest apportion(p, n)[0] of them to interval 0, the next block to
// interval 1, and so on. Ranking preserves the association between a
// record's rank and its likely position in the original distribution, which
// is what lets each record keep its own class label.
//
// The returned slice gives the assigned interval per record, aligned with
// the input order. It is identical to what a stable sort by value would
// give: tied values rank in input order, and -0 ties with +0. The values
// must be finite, which reconstruct.Reconstruct checks on every caller
// before a distribution exists to assign against.
//
// Only the order across block boundaries matters, so instead of sorting,
// the values are counted into about n/recordsPerBucket equal-width buckets
// over [min, max]; a prefix sum gives each bucket its range of ranks, and
// every bucket whose range lies inside one block takes that block's
// interval directly. Only the records of the at most k-1 buckets a block
// boundary cuts through are ordered, by (value, index).
func orderedAssign(values []float64, p []float64) ([]int, error) {
	n := len(values)
	if n == 0 {
		return nil, nil
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("core: orderedAssign with empty distribution")
	}
	// ends[b] is one past the last rank of interval b's block.
	ends := apportion(p, n)
	for b := 1; b < len(ends); b++ {
		ends[b] += ends[b-1]
	}

	lo, hi := values[0], values[0]
	for _, v := range values[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	m := n/recordsPerBucket + 1
	scale := float64(m) / (hi - lo)
	if hi == lo || math.IsInf(scale, 0) || !(scale > 0) {
		// All values equal, a range so narrow that its reciprocal overflows,
		// or one so wide that hi-lo does: one bucket, which the boundary
		// sort below then orders whole.
		m = 1
	}
	bucket := func(v float64) int {
		if m == 1 {
			return 0
		}
		// v-lo and the product are monotone in v and map -0 and +0 alike,
		// so equal values share a bucket and buckets ascend with value;
		// rounding can carry the largest value to m.
		return min(int((v-lo)*scale), m-1)
	}

	// bins first holds each record's bucket; starts[k] becomes the first
	// rank of bucket k, and starts[m] = n.
	bins := make([]int, n)
	starts := make([]int, m+1)
	for i, v := range values {
		k := bucket(v)
		bins[i] = k
		starts[k+1]++
	}
	for k := 1; k <= m; k++ {
		starts[k] += starts[k-1]
	}

	// uniform[k] is the interval every rank of bucket k falls in, or -1 when
	// a block boundary cuts through the bucket.
	uniform := make([]int, m)
	straddling := 0
	b := 0
	for k := range m {
		s, e := starts[k], starts[k+1]
		if s == e {
			continue
		}
		for b < len(ends)-1 && ends[b] <= s {
			b++
		}
		if e <= ends[b] {
			uniform[k] = b
		} else {
			uniform[k] = -1
			straddling += e - s
		}
	}

	cut := make([]int, 0, straddling)
	for i, k := range bins {
		if u := uniform[k]; u >= 0 {
			bins[i] = u
		} else {
			cut = append(cut, i)
		}
	}
	// The cut buckets' records, ordered by (value, index), are those buckets
	// back to back in ascending order; rank each by its bucket's first rank
	// plus its place in the bucket.
	slices.SortFunc(cut, func(i, j int) int {
		if c := cmp.Compare(values[i], values[j]); c != 0 {
			return c
		}
		return cmp.Compare(i, j)
	})
	b = 0
	for at := 0; at < len(cut); {
		k := bucket(values[cut[at]])
		size := starts[k+1] - starts[k]
		for r, i := range cut[at : at+size] {
			for b < len(ends)-1 && ends[b] <= starts[k]+r {
				b++
			}
			bins[i] = b
		}
		at += size
	}
	return bins, nil
}
