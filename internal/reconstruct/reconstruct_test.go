package reconstruct

import (
	"math"
	"testing"
	"testing/quick"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
	"ppdm/internal/stats"
)

func TestNewPartitionValidation(t *testing.T) {
	bad := []struct {
		lo, hi float64
		k      int
	}{
		{0, 1, 0}, {0, 1, -1}, {1, 1, 5}, {2, 1, 5}, {math.NaN(), 1, 5}, {0, math.Inf(1), 5},
	}
	for _, c := range bad {
		if _, err := NewPartition(c.lo, c.hi, c.k); err == nil {
			t.Errorf("NewPartition(%v,%v,%d) succeeded", c.lo, c.hi, c.k)
		}
	}
}

func TestPartitionGeometry(t *testing.T) {
	p, err := NewPartition(0, 100, 10)
	if err != nil {
		t.Fatal(err)
	}
	if p.Width() != 10 {
		t.Errorf("Width = %v", p.Width())
	}
	if p.Midpoint(0) != 5 || p.Midpoint(9) != 95 {
		t.Errorf("midpoints wrong: %v, %v", p.Midpoint(0), p.Midpoint(9))
	}
	if p.LoEdge(3) != 30 || p.HiEdge(3) != 40 {
		t.Errorf("edges wrong")
	}
	cases := []struct {
		v    float64
		want int
	}{{-10, 0}, {0, 0}, {9.99, 0}, {10, 1}, {99.99, 9}, {100, 9}, {500, 9}}
	for _, c := range cases {
		if got := p.Bin(c.v); got != c.want {
			t.Errorf("Bin(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestPartitionHistogram(t *testing.T) {
	p, _ := NewPartition(0, 4, 4)
	h := p.Histogram([]float64{0.5, 1.5, 1.7, 3.5})
	want := []float64{0.25, 0.5, 0, 0.25}
	for i := range want {
		if math.Abs(h[i]-want[i]) > 1e-12 {
			t.Fatalf("Histogram = %v", h)
		}
	}
	// empty input yields uniform
	for _, v := range p.Histogram(nil) {
		if v != 0.25 {
			t.Fatal("empty histogram not uniform")
		}
	}
}

func TestReconstructValidation(t *testing.T) {
	part, _ := NewPartition(0, 10, 5)
	m := noise.Uniform{Alpha: 1}
	good := Config{Partition: part, Noise: m}
	if _, err := Reconstruct(nil, good); err == nil {
		t.Error("empty values accepted")
	}
	if _, err := Reconstruct([]float64{1}, Config{Partition: part}); err == nil {
		t.Error("nil noise accepted")
	}
	if _, err := Reconstruct([]float64{1}, Config{Partition: Partition{0, 10, 0}, Noise: m}); err == nil {
		t.Error("bad partition accepted")
	}
	if _, err := Reconstruct([]float64{1}, Config{Partition: part, Noise: m, Algorithm: 42}); err == nil {
		t.Error("bad algorithm accepted")
	}
	if _, err := Reconstruct([]float64{math.NaN()}, good); err == nil {
		t.Error("NaN value accepted")
	}
	if _, err := Reconstruct([]float64{math.Inf(1)}, good); err == nil {
		t.Error("Inf value accepted")
	}
	cfg := good
	cfg.MaxIters = -1
	if _, err := Reconstruct([]float64{1}, cfg); err == nil {
		t.Error("negative MaxIters accepted")
	}
	cfg = good
	cfg.Epsilon = -1
	if _, err := Reconstruct([]float64{1}, cfg); err == nil {
		t.Error("negative Epsilon accepted")
	}
	cfg = good
	cfg.Workers = -1
	if _, err := Reconstruct([]float64{1}, cfg); err == nil {
		t.Error("negative Workers accepted")
	}
	cfg = good
	cfg.Prior = []float64{1, 2}
	if _, err := Reconstruct([]float64{1}, cfg); err == nil {
		t.Error("wrong-length prior accepted")
	}
	cfg.Prior = []float64{1, 1, 1, 1, -1}
	if _, err := Reconstruct([]float64{1}, cfg); err == nil {
		t.Error("negative prior accepted")
	}
}

// perturbSamples adds model noise to each value, deterministically.
func perturbSamples(values []float64, m noise.Model, seed uint64) []float64 {
	r := prng.New(seed)
	out := make([]float64, len(values))
	for i, v := range values {
		out[i] = v + m.Sample(r)
	}
	return out
}

// bimodalSamples draws from two triangular humps on [0, 100].
func bimodalSamples(n int, seed uint64) []float64 {
	r := prng.New(seed)
	out := make([]float64, n)
	for i := range out {
		if r.Bernoulli(0.5) {
			out[i] = r.Triangular(5, 25, 45)
		} else {
			out[i] = r.Triangular(55, 75, 95)
		}
	}
	return out
}

func reconstructionErr(t *testing.T, original []float64, m noise.Model, alg Algorithm, k int) (reconErr, rawErr float64) {
	t.Helper()
	part, err := NewPartition(0, 100, k)
	if err != nil {
		t.Fatal(err)
	}
	perturbed := perturbSamples(original, m, 99)
	res, err := Reconstruct(perturbed, Config{Partition: part, Noise: m, Algorithm: alg})
	if err != nil {
		t.Fatal(err)
	}
	if !stats.IsDistribution(res.P, 1e-6) {
		t.Fatalf("reconstruction is not a distribution: %v", res.P)
	}
	truth := part.Histogram(original)
	raw := part.Histogram(perturbed)
	reconErr, err = stats.L1(truth, res.P)
	if err != nil {
		t.Fatal(err)
	}
	rawErr, err = stats.L1(truth, raw)
	if err != nil {
		t.Fatal(err)
	}
	return reconErr, rawErr
}

func TestReconstructUniformWithUniformNoise(t *testing.T) {
	r := prng.New(1)
	original := make([]float64, 20000)
	for i := range original {
		original[i] = r.Uniform(0, 100)
	}
	m, _ := noise.UniformForPrivacy(0.5, 100, noise.DefaultConfidence)
	reconErr, rawErr := reconstructionErr(t, original, m, Bayes, 20)
	if reconErr > 0.15 {
		t.Errorf("reconstruction L1 error %v too large", reconErr)
	}
	if reconErr >= rawErr {
		t.Errorf("reconstruction (%v) no better than raw perturbed histogram (%v)", reconErr, rawErr)
	}
}

func TestReconstructBimodalWithGaussianNoise(t *testing.T) {
	original := bimodalSamples(20000, 2)
	m, _ := noise.GaussianForPrivacy(1.0, 100, noise.DefaultConfidence)
	reconErr, rawErr := reconstructionErr(t, original, m, Bayes, 20)
	if reconErr > 0.25 {
		t.Errorf("reconstruction L1 error %v too large", reconErr)
	}
	if reconErr >= rawErr/2 {
		t.Errorf("reconstruction (%v) should beat raw histogram (%v) by 2x", reconErr, rawErr)
	}
}

func TestEMAtLeastAsGoodAsBayes(t *testing.T) {
	original := bimodalSamples(20000, 3)
	m, _ := noise.GaussianForPrivacy(1.0, 100, noise.DefaultConfidence)
	bayesErr, _ := reconstructionErr(t, original, m, Bayes, 25)
	emErr, _ := reconstructionErr(t, original, m, EM, 25)
	// EM uses exact interval masses; allow a small tolerance for sampling.
	if emErr > bayesErr+0.05 {
		t.Errorf("EM error %v much worse than Bayes %v", emErr, bayesErr)
	}
}

func TestReconstructDeterminism(t *testing.T) {
	original := bimodalSamples(2000, 4)
	m := noise.Gaussian{Sigma: 10}
	part, _ := NewPartition(0, 100, 10)
	perturbed := perturbSamples(original, m, 5)
	a, err := Reconstruct(perturbed, Config{Partition: part, Noise: m})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Reconstruct(perturbed, Config{Partition: part, Noise: m})
	for i := range a.P {
		if a.P[i] != b.P[i] {
			t.Fatal("reconstruction is not deterministic")
		}
	}
}

func TestReconstructSimplexProperty(t *testing.T) {
	f := func(seed uint64, kRaw, algRaw uint8) bool {
		k := int(kRaw%30) + 2
		alg := Bayes
		if algRaw%2 == 1 {
			alg = EM
		}
		r := prng.New(seed)
		n := 50 + r.Intn(500)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = r.Uniform(-50, 150) // deliberately escapes the domain
		}
		part, err := NewPartition(0, 100, k)
		if err != nil {
			return false
		}
		res, err := Reconstruct(vals, Config{Partition: part, Noise: noise.Uniform{Alpha: 20}, Algorithm: alg, MaxIters: 50})
		if err != nil {
			return false
		}
		return stats.IsDistribution(res.P, 1e-6) && res.Iters >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReconstructConvergenceFlags(t *testing.T) {
	original := bimodalSamples(5000, 6)
	m := noise.Gaussian{Sigma: 15}
	part, _ := NewPartition(0, 100, 15)
	perturbed := perturbSamples(original, m, 7)

	res, err := Reconstruct(perturbed, Config{Partition: part, Noise: m})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Errorf("default budget did not converge (iters=%d delta=%v)", res.Iters, res.Delta)
	}
	tight, err := Reconstruct(perturbed, Config{Partition: part, Noise: m, MaxIters: 1, Epsilon: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if tight.Converged || tight.Iters != 1 {
		t.Errorf("MaxIters=1 should not converge: %+v", tight)
	}
}

func TestReconstructPointMassConcentrates(t *testing.T) {
	// All originals equal 50; reconstruction should pile mass near bin(50).
	vals := make([]float64, 5000)
	for i := range vals {
		vals[i] = 50
	}
	m := noise.Uniform{Alpha: 20}
	part, _ := NewPartition(0, 100, 20)
	perturbed := perturbSamples(vals, m, 8)
	res, err := Reconstruct(perturbed, Config{Partition: part, Noise: m})
	if err != nil {
		t.Fatal(err)
	}
	center := part.Bin(50)
	var mass float64
	for i := center - 2; i <= center+2; i++ {
		if i >= 0 && i < part.K {
			mass += res.P[i]
		}
	}
	if mass < 0.8 {
		t.Errorf("mass near point value = %v, want > 0.8 (P=%v)", mass, res.P)
	}
}

func TestReconstructWithPrior(t *testing.T) {
	original := bimodalSamples(5000, 9)
	m := noise.Gaussian{Sigma: 10}
	part, _ := NewPartition(0, 100, 10)
	perturbed := perturbSamples(original, m, 10)

	// Warm-starting from the truth should converge at least as fast as from
	// uniform.
	truth := part.Histogram(original)
	warm, err := Reconstruct(perturbed, Config{Partition: part, Noise: m, Prior: truth})
	if err != nil {
		t.Fatal(err)
	}
	cold, _ := Reconstruct(perturbed, Config{Partition: part, Noise: m})
	if warm.Iters > cold.Iters {
		t.Errorf("warm start took %d iters, cold %d", warm.Iters, cold.Iters)
	}
}

// TestObservationGridCoversRange checks that the collector grid holds each
// in-band value in the interval that contains it, on the partition's grid.
func TestObservationGridCoversRange(t *testing.T) {
	part, _ := NewPartition(0, 10, 5)
	c, err := NewCollector(part, noise.Uniform{Alpha: 15})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{-7.3, 0, 5, 22.9}
	if err := c.AddAll(vals); err != nil {
		t.Fatal(err)
	}
	for _, v := range vals {
		idx := c.cell(v) - c.radius - 1
		if lo, hi := part.LoEdge(idx), part.HiEdge(idx); v < lo || v >= hi {
			t.Errorf("value %v counted in grid interval %d = [%v, %v)", v, idx, lo, hi)
		}
	}
	total := 0
	for _, cnt := range c.counts {
		total += cnt
	}
	if total != 4 {
		t.Errorf("grid holds %d observations, want 4", total)
	}
}

func TestAlgorithmString(t *testing.T) {
	if Bayes.String() != "bayes" || EM.String() != "em" {
		t.Error("Algorithm.String wrong")
	}
}
