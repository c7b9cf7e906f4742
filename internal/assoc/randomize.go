package assoc

import (
	"fmt"
	"math"

	"ppdm/internal/prng"
)

// BitFlip is the per-item randomization operator: every item's
// presence/absence bit is independently flipped with probability F before
// the transaction leaves its owner. F = 0.5 destroys all information;
// values in (0, 0.5) trade privacy for estimation accuracy.
type BitFlip struct{ F float64 }

// NewBitFlip validates 0 <= f < 0.5.
func NewBitFlip(f float64) (BitFlip, error) {
	if f < 0 || f >= 0.5 || math.IsNaN(f) {
		return BitFlip{}, fmt.Errorf("assoc: flip probability %v must be in [0, 0.5)", f)
	}
	return BitFlip{F: f}, nil
}

// validate returns NewBitFlip's error for an F it would reject: F is
// exported, so a struct literal can skip the constructor.
func (bf BitFlip) validate() error {
	_, err := NewBitFlip(bf.F)
	return err
}

// Randomize returns a new dataset in which every bit of every transaction
// has been independently flipped with probability F. Deterministic in seed.
// A flip probability that NewBitFlip rejects is an error.
func (bf BitFlip) Randomize(d *Dataset, seed uint64) (*Dataset, error) {
	if d == nil || d.n == 0 {
		return nil, fmt.Errorf("assoc: empty dataset")
	}
	if err := bf.validate(); err != nil {
		return nil, err
	}
	out, err := NewDataset(d.numItems)
	if err != nil {
		return nil, err
	}
	r := prng.New(seed)
	items := make([]int, 0, d.numItems)
	for i := 0; i < d.n; i++ {
		items = items[:0]
		for it := 0; it < d.numItems; it++ {
			present := d.Contains(i, it)
			if r.Bernoulli(bf.F) {
				present = !present
			}
			if present {
				items = append(items, it)
			}
		}
		if err := out.Add(items); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// DeniabilityOdds returns the posterior odds multiplier an adversary gains
// about one bit from seeing its randomized value: (1-F)/F. Lower is more
// private; 1 (at F=0.5) is perfect secrecy for the bit.
func (bf BitFlip) DeniabilityOdds() float64 {
	if bf.F == 0 {
		return math.Inf(1)
	}
	return (1 - bf.F) / bf.F
}

// EstimateSupport estimates the true support of the given itemset from the
// randomized dataset by inverting the bit-flip channel.
//
// For k items the observed presence/absence pattern distribution is the true
// distribution pushed through a k-fold tensor product of the 2×2 channel
// [[1-F, F], [F, 1-F]]. The inverse is the tensor product of the 2×2
// inverses and is applied axis by axis in O(k·2^k), like a fast
// Walsh–Hadamard transform. The estimate is the recovered mass of the
// all-present pattern, clamped to [0, 1] (sampling noise can push the raw
// estimate slightly outside).
func (bf BitFlip) EstimateSupport(randomized *Dataset, items []int) (float64, error) {
	return bf.EstimateSupportWorkers(randomized, items, 0)
}

// EstimateSupportWorkers is EstimateSupport with an explicit bound on the
// pattern-counting parallelism (0 = all cores); the pattern counts are
// exact integers, so the estimate is identical for every worker count. A
// flip probability that NewBitFlip rejects is an error.
func (bf BitFlip) EstimateSupportWorkers(randomized *Dataset, items []int, workers int) (float64, error) {
	if err := bf.validate(); err != nil {
		return 0, err
	}
	counts, err := randomized.PatternCountsWorkers(items, workers)
	if err != nil {
		return 0, err
	}
	if randomized.N() == 0 {
		return 0, fmt.Errorf("assoc: empty dataset")
	}
	return bf.estimateFromCounts(counts, randomized.N(), len(items)), nil
}

// estimateFromCounts inverts the k-fold channel over one pattern-count
// table: identical integer counts yield bit-identical estimates.
func (bf BitFlip) estimateFromCounts(counts []int, n, k int) float64 {
	est := make([]float64, len(counts))
	nf := float64(n)
	for m, c := range counts {
		est[m] = float64(c) / nf
	}
	invertChannel(est, k, bf.F)
	v := est[len(est)-1] // all-present pattern
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return v
}

// invertChannel applies the inverse per-bit channel along every bit axis of
// the 2^k pattern distribution, in place.
func invertChannel(p []float64, k int, f float64) {
	det := 1 - 2*f // determinant of the 2x2 channel; non-zero for f < 0.5
	for b := 0; b < k; b++ {
		bit := 1 << uint(b)
		for m := range p {
			if m&bit != 0 {
				continue
			}
			v0, v1 := p[m], p[m|bit]
			p[m] = ((1-f)*v0 - f*v1) / det
			p[m|bit] = ((1-f)*v1 - f*v0) / det
		}
	}
}
