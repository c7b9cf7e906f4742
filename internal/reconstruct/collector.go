package reconstruct

import (
	"errors"
	"fmt"
	"math"

	"ppdm/internal/noise"
)

// Collector accumulates perturbed observations incrementally, as a data
// warehouse server would during an online survey: only O(intervals)
// aggregated counts are retained — the raw perturbed values are never
// stored — and the distribution can be reconstructed at any point during
// collection.
//
// The counts live on one fixed dense grid, allocated at construction: the
// partition's K intervals widened on each side by the noise model's band
// radius r, so counts[i] holds grid index i−r−1 and the grid spans indices
// [−r−1, K+r]. An observation beyond the band is clamped into the end cell
// on its side. Those end cells' transition-matrix rows are empty, so, like
// any observation the band cannot explain, they reach the estimate only
// through the kernel's fallback coefficient. No observation value can grow
// the grid.
//
// A Collector is not safe for concurrent use.
type Collector struct {
	part   Partition
	model  noise.Model
	width  float64
	radius int
	counts []int
	n      int
}

// maxBandRadius bounds the band radius in intervals, and with it every
// collector's K+2r+2 cells: a model whose support spans more intervals than
// this is rejected rather than allocated for.
const maxBandRadius = 1 << 20

// supportRadius returns the kernel's band radius for model m at interval
// width w: the model's support at DefaultTailMass in intervals, plus one
// interval of slack for the EM half-interval edge offsets and floating-point
// boundary rounding.
func supportRadius(m noise.Model, w float64) (int, error) {
	if m == nil {
		return 0, errors.New("reconstruct: nil noise model")
	}
	sup := m.Support(DefaultTailMass)
	r := math.Ceil(sup/w) + 1
	if !(r >= 1 && r <= maxBandRadius) {
		return 0, fmt.Errorf("reconstruct: noise support %v is not a finite radius within %d intervals of width %v", sup, maxBandRadius, w)
	}
	return int(r), nil
}

// NewCollector returns an empty collector over the given domain partition
// for observations perturbed with model.
func NewCollector(part Partition, model noise.Model) (*Collector, error) {
	var c Collector
	if err := c.reset(part, model); err != nil {
		return nil, err
	}
	return &c, nil
}

// reset makes c an empty collector over part for model, with a new grid.
func (c *Collector) reset(part Partition, model noise.Model) error {
	if _, err := NewPartition(part.Lo, part.Hi, part.K); err != nil {
		return err
	}
	r, err := supportRadius(model, part.Width())
	if err != nil {
		return err
	}
	*c = Collector{part: part, model: model, width: part.Width(), radius: r, counts: make([]int, part.K+2*r+2)}
	return nil
}

// Partition returns the collector's domain partition.
func (c *Collector) Partition() Partition { return c.part }

// N returns the number of observations collected so far.
func (c *Collector) N() int { return c.n }

// Add records one perturbed observation.
func (c *Collector) Add(w float64) error {
	if math.IsNaN(w) || math.IsInf(w, 0) {
		return fmt.Errorf("reconstruct: non-finite observation %v", w)
	}
	c.add(w)
	return nil
}

// add records one finite observation.
func (c *Collector) add(w float64) {
	c.counts[c.cell(w)]++
	c.n++
}

// cell returns the index into counts of finite observation w: its grid
// index ⌊(w−Lo)/width⌋ clamped into [−r−1, K+r], offset by r+1. The clamp
// happens in float, so the int conversion never sees an out-of-range value.
func (c *Collector) cell(w float64) int {
	f := math.Floor((w - c.part.Lo) / c.width)
	if lo := float64(-c.radius - 1); !(f >= lo) {
		f = lo
	} else if hi := float64(c.part.K + c.radius); f > hi {
		f = hi
	}
	return int(f) + c.radius + 1
}

// AddAll records a batch of observations, stopping at the first bad value.
func (c *Collector) AddAll(ws []float64) error {
	for _, w := range ws {
		if err := c.Add(w); err != nil {
			return err
		}
	}
	return nil
}

// Reconstruct estimates the original distribution from the aggregated
// counts. It can be called repeatedly as data keeps arriving; the paper's
// reconstruction needs only the interval counts, so the result is identical
// to running Reconstruct on the full list of observations. The partition
// and noise model are the collector's own; cfg supplies the rest.
func (c *Collector) Reconstruct(cfg Config) (Result, error) {
	if c.n == 0 {
		return Result{}, errors.New("reconstruct: collector has no observations")
	}
	cfg.Partition, cfg.Noise = c.part, c.model
	first, last := 0, len(c.counts)-1
	for c.counts[first] == 0 {
		first++
	}
	for c.counts[last] == 0 {
		last--
	}
	return reconstructGrid(observationGrid{counts: c.counts[first : last+1], lowIdx: first - c.radius - 1, band: c.radius}, cfg)
}
