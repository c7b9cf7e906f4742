package noise

import (
	"math"
	"slices"
	"testing"

	"ppdm/internal/dataset"
	"ppdm/internal/synth"
)

func genTable(t *testing.T, n int) *dataset.Table {
	t.Helper()
	tb, err := synth.Generate(synth.Config{Function: synth.F2, N: n, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

func TestPerturbTableValidation(t *testing.T) {
	tb := genTable(t, 10)
	if _, err := PerturbTable(tb, map[int]Model{99: Uniform{Alpha: 1}}, 1); err == nil {
		t.Error("out-of-range attribute accepted")
	}
	if _, err := PerturbTable(tb, map[int]Model{0: nil}, 1); err == nil {
		t.Error("nil model accepted")
	}
}

func TestPerturbTableBasics(t *testing.T) {
	tb := genTable(t, 2000)
	models := map[int]Model{
		synth.AttrAge:    Uniform{Alpha: 10},
		synth.AttrSalary: Gaussian{Sigma: 5000},
	}
	pt, err := PerturbTable(tb, models, 77)
	if err != nil {
		t.Fatal(err)
	}
	if pt.N() != tb.N() {
		t.Fatalf("perturbed table has %d records, want %d", pt.N(), tb.N())
	}
	changedAge := 0
	for i := 0; i < tb.N(); i++ {
		// labels and untouched attributes are preserved
		if pt.Label(i) != tb.Label(i) {
			t.Fatal("labels changed by perturbation")
		}
		if pt.Row(i)[synth.AttrLoan] != tb.Row(i)[synth.AttrLoan] {
			t.Fatal("unlisted attribute was perturbed")
		}
		d := pt.Row(i)[synth.AttrAge] - tb.Row(i)[synth.AttrAge]
		if math.Abs(d) > 10 {
			t.Fatalf("uniform noise beyond alpha: %v", d)
		}
		if d != 0 {
			changedAge++
		}
	}
	if changedAge < tb.N()*9/10 {
		t.Errorf("only %d/%d ages perturbed", changedAge, tb.N())
	}
	// original table untouched
	orig := genTable(t, 2000)
	for i := 0; i < tb.N(); i++ {
		if tb.Row(i)[synth.AttrAge] != orig.Row(i)[synth.AttrAge] {
			t.Fatal("PerturbTable mutated its input")
		}
	}
}

func TestPerturbTableDeterminism(t *testing.T) {
	tb := genTable(t, 100)
	models := map[int]Model{synth.AttrAge: Gaussian{Sigma: 4}}
	a, _ := PerturbTable(tb, models, 5)
	b, _ := PerturbTable(tb, models, 5)
	c, _ := PerturbTable(tb, models, 6)
	diff56 := false
	for i := 0; i < tb.N(); i++ {
		if a.Row(i)[synth.AttrAge] != b.Row(i)[synth.AttrAge] {
			t.Fatal("same seed produced different perturbations")
		}
		if a.Row(i)[synth.AttrAge] != c.Row(i)[synth.AttrAge] {
			diff56 = true
		}
	}
	if !diff56 {
		t.Fatal("different seeds produced identical perturbations")
	}
}

func TestPerturbationNoiseMoments(t *testing.T) {
	tb := genTable(t, 50000)
	models := map[int]Model{synth.AttrSalary: Uniform{Alpha: 30000}}
	pt, _ := PerturbTable(tb, models, 9)
	var sum, sumsq float64
	for i := 0; i < tb.N(); i++ {
		d := pt.Row(i)[synth.AttrSalary] - tb.Row(i)[synth.AttrSalary]
		sum += d
		sumsq += d * d
	}
	n := float64(tb.N())
	if mean := sum / n; math.Abs(mean) > 300 {
		t.Errorf("noise mean = %v, want ~0", mean)
	}
	want := 30000.0 * 30000 / 3
	if v := sumsq / n; math.Abs(v-want)/want > 0.03 {
		t.Errorf("noise variance = %v, want ~%v", v, want)
	}
}

func TestModelsForAllAttrs(t *testing.T) {
	s := synth.Schema()
	models, err := ModelsForAllAttrs(s, "gaussian", 0.5, DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != s.NumAttrs() {
		t.Fatalf("got %d models, want %d", len(models), s.NumAttrs())
	}
	// each model's privacy level must equal the requested level for its
	// attribute's own width
	for j, m := range models {
		level := PrivacyLevel(m, s.Attrs[j].Width(), DefaultConfidence)
		if math.Abs(level-0.5) > 1e-9 {
			t.Errorf("attr %d: privacy level %v, want 0.5", j, level)
		}
	}
	if _, err := ModelsForAllAttrs(s, "bogus", 0.5, DefaultConfidence); err == nil {
		t.Error("bogus family accepted")
	}
}

func TestModelsForAttrs(t *testing.T) {
	s := synth.Schema()
	models, err := ModelsForAttrs(s, []int{synth.AttrAge, synth.AttrSalary}, "uniform", 1, DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	if len(models) != 2 {
		t.Fatalf("got %d models", len(models))
	}
	if _, err := ModelsForAttrs(s, []int{-1}, "uniform", 1, DefaultConfidence); err == nil {
		t.Error("negative index accepted")
	}
}

func TestDiscretizeTable(t *testing.T) {
	tb := genTable(t, 500)
	dt, err := DiscretizeTable(tb, []int{synth.AttrAge}, 6)
	if err != nil {
		t.Fatal(err)
	}
	// age domain [20, 80], 6 bins of width 10: midpoints 25,35,...,75
	seen := map[float64]bool{}
	for i := 0; i < dt.N(); i++ {
		v := dt.Row(i)[synth.AttrAge]
		seen[v] = true
		valid := false
		for m := 25.0; m <= 75; m += 10 {
			if v == m {
				valid = true
			}
		}
		if !valid {
			t.Fatalf("discretized age %v is not an interval midpoint", v)
		}
		// discretization error bounded by half the interval width
		if math.Abs(v-tb.Row(i)[synth.AttrAge]) > 5 {
			t.Fatalf("discretization moved value by more than half-width")
		}
	}
	if len(seen) < 4 {
		t.Errorf("only %d distinct midpoints used", len(seen))
	}
	if _, err := DiscretizeTable(tb, []int{0}, 0); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := DiscretizeTable(tb, []int{77}, 4); err == nil {
		t.Error("bad attribute accepted")
	}
}

func TestDiscretizeClampsOutOfDomain(t *testing.T) {
	s := dataset.MustSchema([]dataset.Attribute{dataset.NumericAttr("x", 0, 10)}, []string{"a", "b"})
	tb := dataset.NewTable(s)
	_ = tb.Append([]float64{-5}, 0)
	_ = tb.Append([]float64{15}, 1)
	dt, err := DiscretizeTable(tb, []int{0}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dt.Row(0)[0] != 1 { // first bin midpoint
		t.Errorf("below-domain clamped to %v, want 1", dt.Row(0)[0])
	}
	if dt.Row(1)[0] != 9 { // last bin midpoint
		t.Errorf("above-domain clamped to %v, want 9", dt.Row(1)[0])
	}
}

func TestPerturbedDistributionWidens(t *testing.T) {
	// Sanity for the reconstruction experiments: perturbation visibly
	// flattens the empirical distribution.
	tb := genTable(t, 20000)
	w := synth.Schema().Attrs[synth.AttrAge].Width()
	m, _ := GaussianForPrivacy(1.0, w, DefaultConfidence)
	pt, _ := PerturbTable(tb, map[int]Model{synth.AttrAge: m}, 3)

	// maxBin counts ages in 20 equal-width bins on [20, 80], clamping
	// values outside into the edge bins, and returns the fullest bin's
	// count. Original age is uniform; perturbed mass piles into the clamped
	// edge bins, so the fullest bin grows.
	maxBin := func(ages []float64) int {
		var counts [20]int
		for _, v := range ages {
			counts[min(max(int((v-20)/60*20), 0), 19)]++
		}
		return slices.Max(counts[:])
	}
	max1, max2 := maxBin(tb.Column(synth.AttrAge)), maxBin(pt.Column(synth.AttrAge))
	if max2 <= max1 {
		t.Errorf("perturbation did not visibly change the distribution (max %v vs %v)", max2, max1)
	}
}
