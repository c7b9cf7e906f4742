package synth

import (
	"math"
	"testing"
)

func TestSchemaShape(t *testing.T) {
	s := Schema()
	if s.NumAttrs() != 9 {
		t.Fatalf("schema has %d attributes, want 9", s.NumAttrs())
	}
	if s.NumClasses() != 2 || s.Classes[GroupB] != "B" || s.Classes[GroupA] != "A" {
		t.Fatalf("classes = %v", s.Classes)
	}
	if i, ok := s.AttrIndex("age"); !ok || i != AttrAge {
		t.Fatalf("age index = %d", i)
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(Config{Function: 0, N: 10}); err == nil {
		t.Error("invalid function accepted")
	}
	if _, err := Generate(Config{Function: F1, N: 0}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, err := Generate(Config{Function: F1, N: 10, LabelNoise: 1.5}); err == nil {
		t.Error("label noise > 1 accepted")
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(Config{Function: F2, N: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate(Config{Function: F2, N: 200, Seed: 42})
	for i := 0; i < a.N(); i++ {
		if a.Label(i) != b.Label(i) {
			t.Fatal("labels differ across identical seeds")
		}
		for j := range a.Row(i) {
			if a.Row(i)[j] != b.Row(i)[j] {
				t.Fatal("values differ across identical seeds")
			}
		}
	}
	c, _ := Generate(Config{Function: F2, N: 200, Seed: 43})
	same := true
	for i := 0; i < a.N() && same; i++ {
		for j := range a.Row(i) {
			if a.Row(i)[j] != c.Row(i)[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical tables")
	}
}

func TestGenerateDomains(t *testing.T) {
	tb, err := Generate(Config{Function: F1, N: 5000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	attrs := tb.Schema().Attrs
	for i := 0; i < tb.N(); i++ {
		for j, v := range tb.Row(i) {
			if !attrs[j].Contains(v) {
				t.Fatalf("record %d attribute %q value %v outside its domain", i, attrs[j].Name, v)
			}
		}
	}
	// commission is 0 iff salary >= 75000
	for i := 0; i < tb.N(); i++ {
		r := tb.Row(i)
		if r[AttrSalary] >= 75000 && r[AttrCommission] != 0 {
			t.Fatal("commission non-zero for salary >= 75000")
		}
		if r[AttrSalary] < 75000 && r[AttrCommission] < 10000 {
			t.Fatal("commission below 10000 for salary < 75000")
		}
		// hvalue within 0.5z..1.5z * 100000
		z := r[AttrZipcode]
		if r[AttrHvalue] < 0.5*z*100000 || r[AttrHvalue] > 1.5*z*100000 {
			t.Fatalf("hvalue %v outside zipcode-%v band", r[AttrHvalue], z)
		}
		// integer attributes are integral
		for _, j := range []int{AttrElevel, AttrCar, AttrZipcode, AttrHyears} {
			if r[j] != math.Trunc(r[j]) {
				t.Fatalf("attribute %d not integral: %v", j, r[j])
			}
		}
	}
}

// TestGenerateAttributeMoments checks the mean and standard deviation of
// two uniform attributes: age on [20, 80] and salary on [20000, 150000],
// whose standard deviations are their ranges over √12.
func TestGenerateAttributeMoments(t *testing.T) {
	tb, err := Generate(Config{Function: F1, N: 50000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	moments := func(vs []float64) (mean, sd float64) {
		for _, v := range vs {
			mean += v
		}
		mean /= float64(len(vs))
		for _, v := range vs {
			sd += (v - mean) * (v - mean)
		}
		return mean, math.Sqrt(sd / float64(len(vs)))
	}
	for _, c := range []struct {
		name           string
		attr           int
		lo, hi, margin float64
	}{
		{"age", AttrAge, 20, 80, 0.5},
		{"salary", AttrSalary, 20000, 150000, 1000},
	} {
		mean, sd := moments(tb.Column(c.attr))
		if want := (c.lo + c.hi) / 2; math.Abs(mean-want) > c.margin {
			t.Errorf("%s mean = %v, want ~%v", c.name, mean, want)
		}
		if want := (c.hi - c.lo) / math.Sqrt(12); math.Abs(sd-want) > c.margin {
			t.Errorf("%s standard deviation = %v, want ~%v", c.name, sd, want)
		}
	}
}

// Hand-computed records pin the predicate semantics of each function.
func TestClassifyHandPicked(t *testing.T) {
	rec := func(salary, commission, age, elevel, hvalue, hyears, loan float64) []float64 {
		r := make([]float64, 9)
		r[AttrSalary] = salary
		r[AttrCommission] = commission
		r[AttrAge] = age
		r[AttrElevel] = elevel
		r[AttrCar] = 1
		r[AttrZipcode] = 1
		r[AttrHvalue] = hvalue
		r[AttrHyears] = hyears
		r[AttrLoan] = loan
		return r
	}
	cases := []struct {
		name string
		f    Function
		rec  []float64
		want int
	}{
		{"F1 young", F1, rec(0, 0, 30, 0, 0, 0, 0), GroupA},
		{"F1 old", F1, rec(0, 0, 65, 0, 0, 0, 0), GroupA},
		{"F1 middle", F1, rec(0, 0, 50, 0, 0, 0, 0), GroupB},
		{"F1 boundary 40", F1, rec(0, 0, 40, 0, 0, 0, 0), GroupB},
		{"F1 boundary 60", F1, rec(0, 0, 60, 0, 0, 0, 0), GroupA},
		{"F2 young mid salary", F2, rec(60000, 0, 30, 0, 0, 0, 0), GroupA},
		{"F2 young high salary", F2, rec(120000, 0, 30, 0, 0, 0, 0), GroupB},
		{"F2 mid band", F2, rec(100000, 0, 50, 0, 0, 0, 0), GroupA},
		{"F2 old low band", F2, rec(50000, 0, 70, 0, 0, 0, 0), GroupA},
		{"F3 young low elevel", F3, rec(0, 0, 25, 1, 0, 0, 0), GroupA},
		{"F3 young high elevel", F3, rec(0, 0, 25, 3, 0, 0, 0), GroupB},
		{"F3 mid elevel 2", F3, rec(0, 0, 45, 2, 0, 0, 0), GroupA},
		{"F3 old elevel 4", F3, rec(0, 0, 70, 4, 0, 0, 0), GroupA},
		{"F3 old elevel 1", F3, rec(0, 0, 70, 1, 0, 0, 0), GroupB},
		{"F4 young low-el in band", F4, rec(50000, 0, 30, 1, 0, 0, 0), GroupA},
		{"F4 young low-el out", F4, rec(90000, 0, 30, 1, 0, 0, 0), GroupB},
		{"F4 young hi-el in band", F4, rec(90000, 0, 30, 3, 0, 0, 0), GroupA},
		{"F4 mid el2 in band", F4, rec(80000, 0, 50, 2, 0, 0, 0), GroupA},
		{"F4 old el0 band", F4, rec(50000, 0, 70, 0, 0, 0, 0), GroupA},
		{"F5 young in both", F5, rec(60000, 0, 30, 0, 0, 0, 200000), GroupA},
		{"F5 young loan out", F5, rec(60000, 0, 30, 0, 0, 0, 400000), GroupB},
		{"F5 old in both", F5, rec(50000, 0, 70, 0, 0, 0, 400000), GroupA},
		{"F6 commission counts", F6, rec(40000, 20000, 30, 0, 0, 0, 0), GroupA},
		{"F7 profitable", F7, rec(100000, 0, 30, 0, 0, 0, 0), GroupA},
		{"F7 loan kills it", F7, rec(100000, 0, 30, 0, 0, 0, 400000), GroupB},
		{"F8 elevel cost", F8, rec(40000, 0, 30, 4, 0, 0, 0), GroupB},
		{"F8 no elevel cost", F8, rec(120000, 0, 30, 0, 0, 0, 0), GroupA},
		{"F9 mixed", F9, rec(60000, 0, 30, 2, 0, 0, 50000), GroupA},
		{"F10 equity helps", F10, rec(20000, 0, 30, 4, 500000, 30, 0), GroupA},
		{"F10 no equity", F10, rec(20000, 0, 30, 4, 500000, 10, 0), GroupB},
	}
	for _, c := range cases {
		if got := c.f.Classify(c.rec); got != c.want {
			t.Errorf("%s: Classify = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestClassBalanceSanity(t *testing.T) {
	// Every function should produce a non-degenerate class mix at n=20000.
	for f := F1; f <= F10; f++ {
		tb, err := Generate(Config{Function: f, N: 20000, Seed: uint64(f)})
		if err != nil {
			t.Fatal(err)
		}
		counts := tb.ClassCounts()
		fracA := float64(counts[GroupA]) / float64(tb.N())
		if fracA < 0.02 || fracA > 0.98 {
			t.Errorf("%v: degenerate class balance %.3f", f, fracA)
		}
	}
}

func TestF1Balance(t *testing.T) {
	// F1 is Group A iff age<40 or age>=60: P(A) = (20+20)/60 = 2/3.
	tb, _ := Generate(Config{Function: F1, N: 60000, Seed: 3})
	counts := tb.ClassCounts()
	fracA := float64(counts[GroupA]) / float64(tb.N())
	if math.Abs(fracA-2.0/3) > 0.01 {
		t.Errorf("F1 P(A) = %v, want ~0.667", fracA)
	}
}

func TestLabelNoise(t *testing.T) {
	clean, _ := Generate(Config{Function: F1, N: 20000, Seed: 5})
	noisy, _ := Generate(Config{Function: F1, N: 20000, Seed: 5, LabelNoise: 0.2})
	flipped := 0
	for i := 0; i < clean.N(); i++ {
		if clean.Label(i) != noisy.Label(i) {
			flipped++
		}
	}
	rate := float64(flipped) / float64(clean.N())
	if math.Abs(rate-0.2) > 0.02 {
		t.Errorf("label noise flip rate = %v, want ~0.2", rate)
	}
}

func TestParseFunction(t *testing.T) {
	for _, s := range []string{"F1", "1"} {
		f, err := ParseFunction(s)
		if err != nil || f != F1 {
			t.Errorf("ParseFunction(%q) = %v, %v", s, f, err)
		}
	}
	if f, err := ParseFunction("F10"); err != nil || f != F10 {
		t.Errorf("ParseFunction(F10) = %v, %v", f, err)
	}
	for _, s := range []string{"", "F0", "F11", "xyz"} {
		if _, err := ParseFunction(s); err == nil {
			t.Errorf("ParseFunction(%q) succeeded", s)
		}
	}
}

func TestFunctionString(t *testing.T) {
	if F3.String() != "F3" {
		t.Errorf("F3.String() = %q", F3.String())
	}
}
