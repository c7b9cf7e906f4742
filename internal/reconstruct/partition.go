package reconstruct

import (
	"fmt"
	"math"
)

// Partition divides [Lo, Hi] into K equal-width intervals.
type Partition struct {
	Lo, Hi float64
	K      int
}

// NewPartition validates the bounds and interval count.
func NewPartition(lo, hi float64, k int) (Partition, error) {
	if k <= 0 {
		return Partition{}, fmt.Errorf("reconstruct: partition needs k > 0, got %d", k)
	}
	if math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) || !(hi > lo) {
		return Partition{}, fmt.Errorf("reconstruct: invalid partition bounds [%v, %v]", lo, hi)
	}
	if w := (hi - lo) / float64(k); !(w > 0) || math.IsInf(w, 0) {
		return Partition{}, fmt.Errorf("reconstruct: partition [%v, %v] into %d intervals has width %v", lo, hi, k, w)
	}
	return Partition{Lo: lo, Hi: hi, K: k}, nil
}

// Width returns the width of one interval.
func (p Partition) Width() float64 { return (p.Hi - p.Lo) / float64(p.K) }

// Midpoint returns the midpoint of interval i.
func (p Partition) Midpoint(i int) float64 { return p.Lo + (float64(i)+0.5)*p.Width() }

// LoEdge returns the lower edge of interval i.
func (p Partition) LoEdge(i int) float64 { return p.Lo + float64(i)*p.Width() }

// HiEdge returns the upper edge of interval i.
func (p Partition) HiEdge(i int) float64 { return p.Lo + float64(i+1)*p.Width() }

// Bin returns the interval index containing v, clamped to [0, K-1].
func (p Partition) Bin(v float64) int {
	if v <= p.Lo {
		return 0
	}
	if v >= p.Hi {
		return p.K - 1
	}
	i := int((v - p.Lo) / (p.Hi - p.Lo) * float64(p.K))
	if i >= p.K {
		i = p.K - 1
	}
	return i
}

// Histogram returns the normalized distribution of values over the
// partition's intervals (out-of-range values clamped into edge intervals).
// It is used to obtain reference distributions of unperturbed samples.
func (p Partition) Histogram(values []float64) []float64 {
	counts := make([]float64, p.K)
	for _, v := range values {
		counts[p.Bin(v)]++
	}
	if len(values) > 0 {
		inv := 1 / float64(len(values))
		for i := range counts {
			counts[i] *= inv
		}
	} else {
		u := 1 / float64(p.K)
		for i := range counts {
			counts[i] = u
		}
	}
	return counts
}
