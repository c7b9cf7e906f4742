package reconstruct

import (
	"testing"
	"testing/quick"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
)

// scalarDenomPass is the pre-vectorization (PR 5) denominator pass, kept
// verbatim as the rounding reference: the unrolled kernel must reproduce it
// bit for bit.
func scalarDenomPass(w *bandedWeights, counts []int, p, q []float64) {
	for s := 0; s < w.m; s++ {
		if counts[s] == 0 {
			q[s] = 0
			continue
		}
		row := w.row(s)
		bLo := w.bandLo(s)
		var denom float64
		for i, a := range row {
			denom += a * p[bLo+i]
		}
		q[s] = denom
	}
}

// scalarUpdatePass is the pre-vectorization (PR 5) update pass, kept
// verbatim as the rounding reference — per-column increasing-s fold with the
// indirect w.off[s]+t−w.bandLo(s) addressing and the q[s]==0 branch skip.
func scalarUpdatePass(w *bandedWeights, q, p, next []float64, fallback float64) {
	for t := 0; t < w.k; t++ {
		sLo := t - w.lowIdx - w.radius
		if sLo < 0 {
			sLo = 0
		}
		sHi := t - w.lowIdx + w.radius + 1
		if sHi > w.m {
			sHi = w.m
		}
		var acc float64
		for s := sLo; s < sHi; s++ {
			qs := q[s]
			if qs == 0 {
				continue
			}
			acc += qs * w.data[w.off[s]+t-w.bandLo(s)] * p[t]
		}
		if fallback > 0 {
			acc += fallback * p[t]
		}
		next[t] = acc
	}
}

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
// geometries, noise models, algorithms, and worker counts, the unrolled
// slab kernels must reproduce the PR 5 scalar passes bit for bit — including
// empty rows, clamped bands, zero coefficients, and the fallback term.
func TestVectorKernelBitIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		w, counts, p, q, fallback := randomKernelGeometry(seed)
		wantQ := make([]float64, w.m)
		scalarDenomPass(w, counts, p, wantQ)
		wantNext := make([]float64, w.k)
		scalarUpdatePass(w, q, p, wantNext, fallback)
		for _, workers := range []int{1, 4} {
			gotQ := make([]float64, w.m)
			denomPass(w, counts, p, gotQ, workers)
			for s := range wantQ {
				if gotQ[s] != wantQ[s] {
					t.Logf("seed %d workers %d: q[%d] = %x, scalar reference %x", seed, workers, s, gotQ[s], wantQ[s])
					return false
				}
			}
			gotNext := make([]float64, w.k)
			updatePass(w, q, p, gotNext, fallback, workers)
			for c := range wantNext {
				if gotNext[c] != wantNext[c] {
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
