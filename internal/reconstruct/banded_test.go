package reconstruct

import (
	"math"
	"testing"
	"testing/quick"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
	"ppdm/internal/stats"
)

// bandedPerturbed draws n samples from a bimodal shape on [0, 100] and
// perturbs them with m.
func bandedPerturbed(n int, m noise.Model, seed uint64) []float64 {
	original := bimodalSamples(n, seed)
	return perturbSamples(original, m, seed+1)
}

// TestBandedMatchesDenseUniform is the bounded-noise exactness property:
// every entry the band drops is exactly zero for uniform noise, so the
// banded kernel must reproduce the dense result bit for bit — same
// estimate, same iteration count, same final delta — for both algorithms
// across random geometries.
func TestBandedMatchesDenseUniform(t *testing.T) {
	f := func(seed uint64, alphaRaw, kRaw, algRaw uint8) bool {
		alpha := 2 + float64(alphaRaw)/4 // [2, 65.75]
		k := int(kRaw%40) + 2
		alg := Bayes
		if algRaw%2 == 1 {
			alg = EM
		}
		m := noise.Uniform{Alpha: alpha}
		vals := bandedPerturbed(400+int(seed%1000), m, seed)
		part, err := NewPartition(0, 100, k)
		if err != nil {
			return false
		}
		cfg := Config{Partition: part, Noise: m, Algorithm: alg, MaxIters: 60, Cache: NewWeightCache(1)}
		banded, err := Reconstruct(vals, cfg)
		if err != nil {
			return false
		}
		dense, err := reconstructDense(vals, cfg)
		if err != nil {
			return false
		}
		if banded.Iters != dense.Iters || banded.Delta != dense.Delta || banded.Converged != dense.Converged {
			return false
		}
		for b := range banded.P {
			if banded.P[b] != dense.P[b] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBandedWithinTailBound is the unbounded-noise accuracy contract: a
// band at tail mass τ may move the result away from dense rows by at most
// Iters·k·τ in total variation — and at the kernel's DefaultTailMass of
// 1e-12 the two are indistinguishable at any practical precision.
func TestBandedWithinTailBound(t *testing.T) {
	gauss, _ := noise.NewGaussian(6)
	lap, _ := noise.NewLaplace(4)
	part, _ := NewPartition(0, 100, 40)
	for _, tc := range []struct {
		name string
		m    noise.Model
	}{{"gaussian", gauss}, {"laplace", lap}} {
		vals := bandedPerturbed(20000, tc.m, 42)
		cfg := Config{Partition: part, Noise: tc.m, Cache: NewWeightCache(1)}
		dense, err := reconstructDense(vals, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, tail := range []float64{1e-3, 1e-6, DefaultTailMass} {
			banded, err := reconstructWithRadius(vals, cfg, int(math.Ceil(tc.m.Support(tail)/part.Width()))+1)
			if tail == DefaultTailMass {
				banded, err = Reconstruct(vals, cfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			tv, err := stats.TotalVariation(banded.P, dense.P)
			if err != nil {
				t.Fatal(err)
			}
			bound := float64(dense.Iters) * float64(part.K) * tail
			if tv > bound {
				t.Errorf("%s tail=%g: TV(banded, dense) = %g exceeds tolerance %g", tc.name, tail, tv, bound)
			}
			if tail == DefaultTailMass && tv > 1e-9 {
				t.Errorf("%s default tail: TV(banded, dense) = %g, want indistinguishable", tc.name, tv)
			}
		}
	}
}

// TestBandedActuallyBands guards the optimization itself: for noise much
// narrower than the domain the banded slab must be a small fraction of the
// dense matrix, or the kernel is silently storing dense rows.
func TestBandedActuallyBands(t *testing.T) {
	m := noise.Uniform{Alpha: 5}
	part, _ := NewPartition(0, 100, 100)
	vals := bandedPerturbed(5000, m, 7)
	obs := newObservationGrid(vals, part, m)
	banded := transitionWeights(Config{Partition: part, Noise: m, Cache: NewWeightCache(1)}, obs)
	dr := denseRadius(part.K, obs.lowIdx, len(obs.counts))
	dense := computeWeights(m, Bayes, part.Width(), part.K, obs.lowIdx, len(obs.counts), dr, 1)
	if got, limit := len(banded.data), len(dense.data)/4; got > limit {
		t.Errorf("banded slab holds %d entries, dense %d — banding is not happening", got, len(dense.data))
	}
	if banded.radius >= dr {
		t.Errorf("banded radius %d is the dense radius", banded.radius)
	}
}

// TestIterationWorkerDeterminism races the chunked accumulation passes on a
// grid large enough to cross the parallel threshold: the estimate must be
// bitwise identical between Workers=1 and Workers=8, banded and dense, for
// both algorithms.
func TestIterationWorkerDeterminism(t *testing.T) {
	m, _ := noise.NewGaussian(4)
	part, _ := NewPartition(0, 100, 300)
	vals := bandedPerturbed(50000, m, 11)
	for _, alg := range []Algorithm{Bayes, EM} {
		for _, dense := range []bool{false, true} {
			var ps [2][]float64
			for i, workers := range []int{1, 8} {
				cfg := Config{
					Partition: part, Noise: m, Algorithm: alg,
					Workers: workers, Cache: NewWeightCache(1), MaxIters: 40,
				}
				run := Reconstruct
				if dense {
					run = reconstructDense
				}
				res, err := run(vals, cfg)
				if err != nil {
					t.Fatal(err)
				}
				ps[i] = res.P
			}
			for b := range ps[0] {
				if ps[0][b] != ps[1][b] {
					t.Fatalf("alg %v dense %v: bin %d differs between Workers=1 and Workers=8", alg, dense, b)
				}
			}
		}
	}
}

// TestBandedCollectorMatchesReconstruct checks the bounded grid against the
// unbounded oracle grid: with every observation inside the band, the
// collector's window is the oracle grid, so the banded estimate is
// identical.
func TestBandedCollectorMatchesReconstruct(t *testing.T) {
	m := noise.Uniform{Alpha: 10}
	part, _ := NewPartition(0, 100, 30)
	vals := bandedPerturbed(8000, m, 13)
	cfg := Config{Partition: part, Noise: m}
	oracle, err := reconstructGrid(newObservationGrid(vals, part, m), cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector(part, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddAll(vals); err != nil {
		t.Fatal(err)
	}
	collected, err := c.Reconstruct(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for b := range oracle.P {
		if oracle.P[b] != collected.P[b] {
			t.Fatalf("bin %d: collector path differs from the oracle grid", b)
		}
	}
}

// TestObservationGridEdgeFuzz drives the collector grid and the unbounded
// oracle grid with adversarial values — exact bucket edges, values far
// outside the domain, negative offsets, single observations — and checks
// that every value is counted exactly once, that out-of-band values land
// in the end row on their side, and that in-band values bin as the oracle
// bins them. The oracle bins relative to the low edge of its own grid, so
// a value that sits on an interval edge may round to either side of it in
// either formula; there the two may differ by one interval.
func TestObservationGridEdgeFuzz(t *testing.T) {
	f := func(seed uint64, kRaw uint8, spreadRaw uint8) bool {
		r := prng.New(seed)
		k := int(kRaw%50) + 1
		part, err := NewPartition(0, 100, k)
		if err != nil {
			return false
		}
		spread := 1 + float64(spreadRaw)*4
		n := 1 + r.Intn(300)
		vals := make([]float64, n)
		for i := range vals {
			switch r.Intn(4) {
			case 0: // exact bucket edge, including negative multiples
				vals[i] = float64(r.Intn(2*k)-k) * part.Width()
			case 1: // far outside the domain
				vals[i] = r.Uniform(-spread*100, spread*100)
			default:
				vals[i] = r.Uniform(-spread, 100+spread)
			}
		}
		m := noise.Uniform{Alpha: spread}
		c, err := NewCollector(part, m)
		if err != nil {
			return false
		}
		if err := c.AddAll(vals); err != nil {
			return false
		}
		g := newObservationGrid(vals, part, m)
		lo, w := gridLo(g, part), part.Width()
		rad := c.radius
		for _, v := range vals {
			want := g.lowIdx + min(max(int((v-lo)/w), 0), len(g.counts)-1)
			want = min(max(want, -rad-1), k+rad) // the end rows
			if got := c.cell(v) - rad - 1; got != want {
				edge := part.Lo + float64(max(got, want))*w
				if got-want > 1 || want-got > 1 || math.Abs(v-edge) > 1e-9*(1+math.Abs(v)+math.Abs(lo)) {
					return false
				}
			}
		}
		total := 0
		for _, cnt := range c.counts {
			if cnt < 0 {
				return false
			}
			total += cnt
		}
		return total == n && c.N() == n && len(c.counts) == k+2*rad+2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// infiniteModel reports an unbounded support, which no grid can hold.
type infiniteModel struct{ noise.Gaussian }

func (infiniteModel) Support(float64) float64 { return math.Inf(1) }

// TestBandRadiusResolution pins the radius policy: exact-support banding
// for uniform, rejection of models without a finite support, and a
// canonicalised dense radius for bands wider than the grid.
func TestBandRadiusResolution(t *testing.T) {
	part, _ := NewPartition(0, 100, 50)
	w := part.Width()
	got, err := supportRadius(noise.Uniform{Alpha: 8}, w)
	if want := int(math.Ceil(8/w)) + 1; err != nil || got != want {
		t.Errorf("uniform alpha=8: radius %d (%v), want %d", got, err, want)
	}
	for _, m := range []noise.Model{nil, infiniteModel{noise.Gaussian{Sigma: 2}}, noise.Gaussian{Sigma: 1e9}} {
		if _, err := supportRadius(m, w); err == nil {
			t.Errorf("%#v: radius accepted", m)
		}
		if _, err := NewCollector(part, m); err == nil {
			t.Errorf("%#v: collector accepted", m)
		}
	}
	// a gaussian so wide its band exceeds the grid collapses to dense
	m := noise.Gaussian{Sigma: 500}
	obs := newObservationGrid([]float64{-10, 50, 120}, part, m)
	if got, dense := transitionWeights(Config{Partition: part, Noise: m, Cache: NewWeightCache(1)}, obs).radius,
		denseRadius(part.K, obs.lowIdx, len(obs.counts)); got != dense {
		t.Errorf("wide gaussian: radius %d, want dense %d", got, dense)
	}
}
