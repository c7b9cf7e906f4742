package reconstruct

import (
	"math"
	"testing"
	"testing/quick"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
)

// randomKernelGeometry builds a banded matrix plus matching random estimate,
// counts, coefficients, and fallback from one seed, exercising negative
// offsets, clamped bands, empty rows, and zero entries.
func randomKernelGeometry(seed uint64) (w *bandedWeights, counts []int, p, q []float64, fallback float64) {
	r := prng.New(seed)
	k := 1 + r.Intn(90)
	m := 1 + r.Intn(140)
	lowIdx := r.Intn(21) - 10
	radius := r.Intn(k + m)
	width := 0.25 + r.Float64()*4
	var model noise.Model
	switch r.Intn(3) {
	case 0:
		model = noise.Uniform{Alpha: 1 + r.Float64()*20}
	case 1:
		model = noise.Gaussian{Sigma: 0.5 + r.Float64()*10}
	default:
		model = noise.Laplace{B: 0.5 + r.Float64()*8}
	}
	alg := Bayes
	if r.Intn(2) == 1 {
		alg = EM
	}
	w = computeWeights(model, alg, width, k, lowIdx, m, radius, 1)

	p = make([]float64, k)
	for t := range p {
		p[t] = r.Float64()
	}
	counts = make([]int, m)
	q = make([]float64, m)
	for s := range counts {
		if r.Intn(4) > 0 { // leave ~1/4 of the rows empty
			counts[s] = 1 + r.Intn(50)
			q[s] = r.Float64() * 3
		}
	}
	if r.Intn(2) == 1 {
		fallback = r.Float64()
	}
	return w, counts, p, q, fallback
}

// TestVectorKernelBitIdentity is the rewrite's contract: across random
// geometries, noise models, algorithms, and worker counts, every row and
// column without a run must reproduce the scalar passes bit for bit —
// including empty rows, clamped bands, zero coefficients, and the fallback
// term — and every one with a run must come within 1e-12 of its largest
// cell times the mass of the vector it folds, the error a run's prefix-sum
// difference can add. coefPass must fold every row exactly as denomPass
// does: its coefficient is the row's share over that denominator, or the
// negated share where the denominator is not positive, bit for bit.
func TestVectorKernelBitIdentity(t *testing.T) {
	var runFolds, plainFolds int
	f := func(seed uint64) bool {
		w, counts, p, q, fallback := randomKernelGeometry(seed)
		wantQ := make([]float64, w.m)
		scalarDenomPass(w, counts, p, wantQ)
		wantNext := make([]float64, w.k)
		scalarUpdatePass(w, q, p, wantNext, fallback)
		pre := make([]float64, max(w.k, w.m)+1)
		// near reports whether got may stand for want: bit-identical for a
		// fold without a run, within the run's bound for one with it.
		near := func(got, want float64, f fold, cells []float64, mass float64) bool {
			if f.runLo == f.runHi {
				plainFolds++
				return got == want
			}
			runFolds++
			largest := 0.0
			for _, c := range cells {
				largest = max(largest, c)
			}
			return math.Abs(got-want) <= 1e-12*largest*mass
		}
		var pMass, qMass float64
		for _, v := range p {
			pMass += v
		}
		for _, v := range q {
			qMass += v
		}
		frac := make([]float64, w.m)
		for s, c := range counts {
			frac[s] = float64(c) / 1000
		}
		for _, workers := range []int{1, 4} {
			gotQ := make([]float64, w.m)
			denomPass(w, counts, p, pre, gotQ, workers)
			for s := range wantQ {
				if !near(gotQ[s], wantQ[s], w.rows[s], w.row(s), pMass) {
					t.Logf("seed %d workers %d: q[%d] = %x, scalar reference %x", seed, workers, s, gotQ[s], wantQ[s])
					return false
				}
			}
			// coefPass folds each row as denomPass does, then divides.
			coefs := make([]float64, w.m)
			coefPass(w, frac, p, pre, coefs, workers)
			for s, d := range gotQ {
				want := -frac[s]
				if frac[s] == 0 {
					want = 0
				} else if d > 0 {
					want = frac[s] / d
				}
				if math.Float64bits(coefs[s]) != math.Float64bits(want) {
					t.Logf("seed %d workers %d: coefficient %d = %x, share over denominator %x", seed, workers, s, coefs[s], want)
					return false
				}
			}
			gotNext := make([]float64, w.k)
			prefixSums(q, pre)
			updatePass(w, q, p, pre, gotNext, fallback, workers)
			for c := range wantNext {
				if !near(gotNext[c], wantNext[c], w.cols[c], w.tData[w.tOff[c]:w.tOff[c+1]], qMass*p[c]) {
					t.Logf("seed %d workers %d: next[%d] = %x, scalar reference %x", seed, workers, c, gotNext[c], wantNext[c])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
	if runFolds == 0 || plainFolds == 0 {
		t.Fatalf("%d folds with a run and %d without: the geometries miss a kind", runFolds, plainFolds)
	}
}

// TestTransposedSlabMatchesRows checks the gather invariant directly: every
// (s, t) entry of the column slab must be the same bits as the row slab's,
// and the two slabs must store exactly the same entry set.
func TestTransposedSlabMatchesRows(t *testing.T) {
	f := func(seed uint64) bool {
		w, _, _, _, _ := randomKernelGeometry(seed)
		if len(w.tData) != len(w.data) {
			t.Logf("seed %d: column slab holds %d entries, row slab %d", seed, len(w.tData), len(w.data))
			return false
		}
		for tc := 0; tc < w.k; tc++ {
			col := w.tData[w.tOff[tc]:w.tOff[tc+1]]
			for i, v := range col {
				s := w.tLo[tc] + i
				if got := w.data[w.off[s]+tc-w.bandLo(s)]; v != got {
					t.Logf("seed %d: entry (s=%d, t=%d) differs between slabs", seed, s, tc)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestIterationAllocs pins the iteration's steady state: with the weight
// matrix cached and the scratch pooled, an iteration allocates nothing, so a
// reconstruction that runs 50 iterations allocates what one that runs 5
// does. The tiny Epsilon keeps both from converging early.
func TestIterationAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization")
	}
	m := noise.Uniform{Alpha: 25}
	part, err := NewPartition(0, 100, 40)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCollector(part, m)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddAll(bandedPerturbed(5000, m, 3)); err != nil {
		t.Fatal(err)
	}
	cache := NewWeightCache(1)
	allocs := func(maxIters int) float64 {
		cfg := Config{MaxIters: maxIters, Epsilon: math.SmallestNonzeroFloat64, Cache: cache}
		return testing.AllocsPerRun(20, func() {
			res, err := c.Reconstruct(cfg)
			if err != nil || res.Iters != maxIters || res.Converged {
				t.Fatalf("MaxIters %d: %d iterations, converged %v, err %v", maxIters, res.Iters, res.Converged, err)
			}
		})
	}
	if short, long := allocs(5), allocs(50); short != long {
		t.Errorf("a reconstruction allocates %v times at MaxIters 5 and %v at MaxIters 50: the iteration allocates", short, long)
	}
}

// TestRunKernelMatchesPlainFold is the run kernel's contract against the
// plain fold (scalarIterate), over random geometries: uniform, Gaussian and
// Laplace noise, Bayes and EM, interval widths that include 0.5, 1 and 2,
// at which uniform EM rows form runs too. The bounds, fixed before the test
// was first run:
//   - the same Iters and Converged everywhere;
//   - on a matrix with a run, every estimate entry within 1e-12 of the
//     fold's: a run's prefix-sum difference is off by at most about k+m
//     roundings of a unit of probability mass, under 1e-13 here;
//   - on a matrix with none, the same estimate and final delta bit for bit.
func TestRunKernelMatchesPlainFold(t *testing.T) {
	var withRun, without, emWithRun int
	var largest float64 // the largest |ΔP| on a matrix with a run
	f := func(seed uint64) bool {
		r := prng.New(seed)
		width := []float64{0.5, 1, 2, 0.1 + r.Float64()*5}[r.Intn(4)]
		k := 2 + r.Intn(119)
		lo := float64(r.Intn(101) - 50)
		part, err := NewPartition(lo, lo+float64(k)*width, k)
		if err != nil {
			return false
		}
		width = part.Width()
		var model noise.Model
		switch r.Intn(4) {
		case 0, 1:
			model = noise.Uniform{Alpha: width * (0.5 + r.Float64()*40)}
		case 2:
			model = noise.Gaussian{Sigma: width * (0.3 + r.Float64()*15)}
		default:
			model = noise.Laplace{B: width * (0.3 + r.Float64()*10)}
		}
		alg := Algorithm(r.Intn(2))
		vals := make([]float64, 200+r.Intn(4800))
		mid, spread := part.Lo+r.Float64()*(part.Hi-part.Lo), (part.Hi-part.Lo)/(1+r.Float64()*6)
		for i := range vals {
			v := mid + (r.Float64()-0.5)*spread
			vals[i] = min(max(v, part.Lo), part.Hi) + model.Sample(r)
		}
		obs := newObservationGrid(vals, part, model)
		radius := min(obs.band, denseRadius(k, obs.lowIdx, len(obs.counts)))
		w := computeWeights(model, alg, width, k, obs.lowIdx, len(obs.counts), radius, 1)
		cfg, err := Config{Partition: part, Noise: model, Algorithm: alg, MaxIters: 150}.resolved()
		if err != nil {
			return false
		}
		got, err := iterate(obs, w, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		want, err := scalarIterate(obs, w, cfg)
		if err != nil {
			t.Logf("seed %d: oracle: %v", seed, err)
			return false
		}
		if got.Iters != want.Iters || got.Converged != want.Converged {
			t.Logf("seed %d (%v %v, width %v, k %d): %d iterations (converged %v), plain fold %d (%v)",
				seed, model, alg, width, k, got.Iters, got.Converged, want.Iters, want.Converged)
			return false
		}
		if !w.runs {
			without++
			if got.Delta != want.Delta {
				t.Logf("seed %d (%v %v): final delta %x, plain fold %x", seed, model, alg, got.Delta, want.Delta)
				return false
			}
			for b := range got.P {
				if got.P[b] != want.P[b] {
					t.Logf("seed %d (%v %v): P[%d] = %x, plain fold %x", seed, model, alg, b, got.P[b], want.P[b])
					return false
				}
			}
			return true
		}
		withRun++
		if alg == EM {
			emWithRun++
		}
		for b := range got.P {
			d := math.Abs(got.P[b] - want.P[b])
			if d > 1e-12 {
				t.Logf("seed %d (%v %v, width %v, k %d): |ΔP[%d]| = %g", seed, model, alg, width, k, b, d)
				return false
			}
			largest = max(largest, d)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if withRun == 0 || without == 0 || emWithRun == 0 {
		t.Fatalf("%d matrices with a run (%d EM), %d without: the geometries miss a kind", withRun, emWithRun, without)
	}
	t.Logf("%d matrices with a run (%d EM, largest |ΔP| %g), %d without", withRun, emWithRun, largest, without)
}

// TestRunIterationWorkerDeterminism races the run path of the chunked
// passes: under uniform noise every row and column folds through its run,
// and on a grid whose work after that compression still crosses the
// parallel threshold the estimate must be bitwise identical between
// Workers=1 and Workers=8, for both algorithms. The width 0.5 makes the
// uniform CDF differences exact, so EM rows form runs too.
func TestRunIterationWorkerDeterminism(t *testing.T) {
	m := noise.Uniform{Alpha: 4}
	part, err := NewPartition(0, 20000, 40000)
	if err != nil {
		t.Fatal(err)
	}
	r := prng.New(17)
	vals := make([]float64, 50000)
	for i := range vals {
		vals[i] = r.Uniform(0, 20000) + m.Sample(r)
	}
	for _, alg := range []Algorithm{Bayes, EM} {
		cfg := Config{Partition: part, Noise: m, Algorithm: alg, Cache: NewWeightCache(1), MaxIters: 10}
		if w := transitionWeights(cfg, newObservationGrid(vals, part, m)); !w.runs || w.work < iterWorkMin {
			t.Fatalf("alg %v: runs %v, work %d against the threshold %d: the grid misses the run path", alg, w.runs, w.work, iterWorkMin)
		}
		var ps [2][]float64
		for i, workers := range []int{1, 8} {
			cfg.Workers = workers
			cfg.Cache = NewWeightCache(1) // each worker count computes its own matrix
			res, err := Reconstruct(vals, cfg)
			if err != nil {
				t.Fatal(err)
			}
			ps[i] = res.P
		}
		for b := range ps[0] {
			if ps[0][b] != ps[1][b] {
				t.Fatalf("alg %v: bin %d differs between Workers=1 and Workers=8", alg, b)
			}
		}
	}
}

// TestIterateMatchesPassLoop is the fused loop's contract: over random
// geometries — uniform, Gaussian and Laplace noise, Bayes and EM, with and
// without a prior, with empty observation rows and with rows the estimate
// cannot explain (their shares go to the fallback), serial and chunked —
// iterate must return the pass loop's estimate, iteration count,
// convergence and final delta (passIterate) bit for bit.
func TestIterateMatchesPassLoop(t *testing.T) {
	var priors, emptyRows, fallbackRows, chunked, runs int
	f := func(seed uint64) bool {
		r := prng.New(seed)
		width := []float64{0.5, 1, 2, 0.1 + r.Float64()*5}[r.Intn(4)]
		k := 2 + r.Intn(119)
		if r.Intn(4) == 0 {
			k = 200 + r.Intn(200) // wide enough for the chunked passes
		}
		lo := float64(r.Intn(101) - 50)
		part, err := NewPartition(lo, lo+float64(k)*width, k)
		if err != nil {
			return false
		}
		width = part.Width()
		var model noise.Model
		switch r.Intn(3) {
		case 0:
			model = noise.Uniform{Alpha: width * (0.5 + r.Float64()*40)}
		case 1:
			model = noise.Gaussian{Sigma: width * (0.3 + r.Float64()*15)}
		default:
			model = noise.Laplace{B: width * (0.3 + r.Float64()*10)}
		}
		alg := Algorithm(r.Intn(2))
		vals := make([]float64, 200+r.Intn(3000))
		mid, spread := part.Lo+r.Float64()*(part.Hi-part.Lo), (part.Hi-part.Lo)/(1+r.Float64()*6)
		for i := range vals {
			v := mid + (r.Float64()-0.5)*spread
			vals[i] = min(max(v, part.Lo), part.Hi) + model.Sample(r)
		}
		band, err := supportRadius(model, width)
		if err != nil {
			return false
		}
		if r.Intn(2) == 0 {
			// A few values beyond the band on either side: rows whose band
			// misses the domain, and the empty rows between them and the
			// rest.
			for i := 0; i < 1+r.Intn(5); i++ {
				off := float64(band+2+r.Intn(30)) * width
				if r.Intn(2) == 0 {
					vals[i] = part.Hi + off
				} else {
					vals[i] = part.Lo - off
				}
			}
		}
		obs := newObservationGrid(vals, part, model)
		radius := min(obs.band, denseRadius(k, obs.lowIdx, len(obs.counts)))
		w := computeWeights(model, alg, width, k, obs.lowIdx, len(obs.counts), radius, 1)
		cfg := Config{Partition: part, Noise: model, Algorithm: alg, MaxIters: 40}
		if r.Intn(2) == 0 {
			cfg.Prior = make([]float64, k)
			for t := range cfg.Prior {
				cfg.Prior[t] = 0.05 + r.Float64()
			}
			priors++
		}
		for s, c := range obs.counts {
			f := w.rows[s]
			switch {
			case c == 0:
				emptyRows++
			case f.lo == f.hi:
				fallbackRows++
			}
		}
		if w.runs {
			runs++
		}
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			rcfg, err := cfg.resolved()
			if err != nil {
				return false
			}
			if iterWorkers(rcfg, w) > 1 {
				chunked++
			}
			got, err := iterate(obs, w, rcfg)
			if err != nil {
				t.Logf("seed %d: %v", seed, err)
				return false
			}
			want, err := passIterate(obs, w, rcfg)
			if err != nil {
				t.Logf("seed %d: oracle: %v", seed, err)
				return false
			}
			if got.Iters != want.Iters || got.Converged != want.Converged ||
				math.Float64bits(got.Delta) != math.Float64bits(want.Delta) {
				t.Logf("seed %d workers %d (%v %v, k %d): %d iterations (converged %v, delta %x), pass loop %d (%v, %x)",
					seed, workers, model, alg, k, got.Iters, got.Converged, got.Delta, want.Iters, want.Converged, want.Delta)
				return false
			}
			for b := range got.P {
				if math.Float64bits(got.P[b]) != math.Float64bits(want.P[b]) {
					t.Logf("seed %d workers %d (%v %v, k %d): P[%d] = %x, pass loop %x", seed, workers, model, alg, k, b, got.P[b], want.P[b])
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if priors == 0 || emptyRows == 0 || fallbackRows == 0 || chunked == 0 || runs == 0 {
		t.Fatalf("%d priors, %d empty rows, %d fallback rows, %d chunked runs, %d matrices with a run: the geometries miss a kind",
			priors, emptyRows, fallbackRows, chunked, runs)
	}
	t.Logf("%d priors, %d empty rows, %d fallback rows, %d chunked runs, %d matrices with a run", priors, emptyRows, fallbackRows, chunked, runs)
}
