package reconstruct

import (
	"math"
	"testing"
	"testing/quick"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
	"ppdm/internal/stats"
)

func TestNewCollectorValidation(t *testing.T) {
	m := noise.Uniform{Alpha: 1}
	if _, err := NewCollector(Partition{Lo: 0, Hi: 0, K: 5}, m); err == nil {
		t.Error("bad partition accepted")
	}
	part, _ := NewPartition(0, 10, 5)
	if _, err := NewCollector(part, nil); err == nil {
		t.Error("nil model accepted")
	}
	c, err := NewCollector(part, m)
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 0 {
		t.Error("fresh collector not empty")
	}
	if c.Partition() != part {
		t.Error("Partition not returned")
	}
}

func TestCollectorAddValidation(t *testing.T) {
	part, _ := NewPartition(0, 10, 5)
	m := noise.Uniform{Alpha: 1}
	c, _ := NewCollector(part, m)
	if err := c.Add(math.NaN()); err == nil {
		t.Error("NaN accepted")
	}
	if err := c.Add(math.Inf(-1)); err == nil {
		t.Error("Inf accepted")
	}
	if err := c.AddAll([]float64{1, math.NaN()}); err == nil {
		t.Error("AddAll with NaN accepted")
	}
	if c.N() != 1 {
		t.Errorf("partial AddAll recorded %d observations, want 1", c.N())
	}
	empty, _ := NewCollector(part, m)
	if _, err := empty.Reconstruct(Config{}); err == nil {
		t.Error("empty collector reconstructed")
	}
}

// The collector must reproduce the reconstruction on the unbounded oracle
// grid exactly when every value lies inside the band: the algorithm
// depends only on the interval counts.
func TestCollectorMatchesBatchProperty(t *testing.T) {
	part, _ := NewPartition(0, 100, 15)
	f := func(seed uint64, nRaw uint16, gaussian bool) bool {
		r := prng.New(seed)
		n := int(nRaw%800) + 20
		var m noise.Model
		if gaussian {
			m = noise.Gaussian{Sigma: 12}
		} else {
			m = noise.Uniform{Alpha: 25}
		}
		values := make([]float64, n)
		for i := range values {
			values[i] = r.Uniform(0, 100) + m.Sample(r)
		}
		cfg := Config{Partition: part, Noise: m, MaxIters: 80}
		oracle, err := reconstructGrid(newObservationGrid(values, part, m), cfg)
		if err != nil {
			return false
		}
		col, err := NewCollector(part, m)
		if err != nil {
			return false
		}
		if err := col.AddAll(values); err != nil {
			return false
		}
		inc, err := col.Reconstruct(cfg)
		if err != nil {
			return false
		}
		batch, err := Reconstruct(values, cfg)
		if err != nil {
			return false
		}
		if inc.Iters != oracle.Iters || inc.Converged != oracle.Converged {
			return false
		}
		for i := range oracle.P {
			if oracle.P[i] != inc.P[i] || batch.P[i] != inc.P[i] {
				return false
			}
		}
		return col.N() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestCollectorOutOfRangeValues adds values far beyond any float-to-int
// range: each must land in the end row on its side, and the collector must
// still reconstruct on its bounded grid.
func TestCollectorOutOfRangeValues(t *testing.T) {
	part, _ := NewPartition(0, 100, 20)
	m := noise.Gaussian{Sigma: 10}
	c, err := NewCollector(part, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddAll([]float64{-1e300, 50, 1e300, -math.MaxFloat64, math.MaxFloat64}); err != nil {
		t.Fatal(err)
	}
	if c.counts[0] != 2 || c.counts[len(c.counts)-1] != 2 {
		t.Errorf("end rows hold %d and %d, want 2 and 2", c.counts[0], c.counts[len(c.counts)-1])
	}
	if want := part.K + 2*c.radius + 2; len(c.counts) != want {
		t.Errorf("grid has %d cells, want K+2r+2 = %d", len(c.counts), want)
	}
	res, err := c.Reconstruct(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IsDistribution(res.P, 1e-9) {
		t.Errorf("estimate is not a distribution: %v", res.P)
	}
}

// TestCollectorGridSize pins the grid of the paper's 100%-privacy gaussian
// at 50 intervals: 236 cells, whatever values arrive.
func TestCollectorGridSize(t *testing.T) {
	m, _ := noise.GaussianForPrivacy(1.0, 100, noise.DefaultConfidence)
	part, _ := NewPartition(0, 100, 50)
	c, err := NewCollector(part, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.counts) != 236 {
		t.Errorf("grid has %d cells, want 236", len(c.counts))
	}
}

func TestCollectorImprovesWithData(t *testing.T) {
	// Reconstruction quality mid-collection should improve (or stay flat)
	// as more responses arrive.
	part, _ := NewPartition(0, 100, 20)
	m := noise.Gaussian{Sigma: 10}
	r := prng.New(5)
	col, _ := NewCollector(part, m)
	truth := make([]float64, 0, 50000)

	var errAt = map[int]float64{}
	checkpoints := []int{500, 5000, 50000}
	for _, target := range checkpoints {
		for col.N() < target {
			v := r.Triangular(0, 30, 100)
			truth = append(truth, v)
			if err := col.Add(v + m.Sample(r)); err != nil {
				t.Fatal(err)
			}
		}
		res, err := col.Reconstruct(Config{Noise: m, Epsilon: 1e-3})
		if err != nil {
			t.Fatal(err)
		}
		ref := part.Histogram(truth)
		l1, _ := stats.L1(ref, res.P)
		errAt[target] = l1
	}
	if errAt[50000] > errAt[500] {
		t.Errorf("reconstruction error grew with data: %v", errAt)
	}
	if errAt[50000] > 0.2 {
		t.Errorf("final reconstruction error %v too large", errAt[50000])
	}
}
