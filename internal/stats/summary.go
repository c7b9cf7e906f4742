package stats

import (
	"errors"
	"math"
	"sort"
)

// Quantile returns the q-quantile (0 <= q <= 1) of vs using linear
// interpolation between order statistics. vs is not modified.
func Quantile(vs []float64, q float64) (float64, error) {
	if len(vs) == 0 {
		return 0, errors.New("stats: Quantile on empty sample")
	}
	if q < 0 || q > 1 || math.IsNaN(q) {
		return 0, errors.New("stats: Quantile requires 0 <= q <= 1")
	}
	sorted := append([]float64(nil), vs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1], nil
	}
	frac := pos - float64(i)
	return sorted[i]*(1-frac) + sorted[i+1]*frac, nil
}
