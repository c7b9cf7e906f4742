package noise

import (
	"math"
	"testing"
	"testing/quick"

	"ppdm/internal/prng"
)

func TestUniformValidation(t *testing.T) {
	for _, a := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewUniform(a); err == nil {
			t.Errorf("NewUniform(%v) succeeded", a)
		}
	}
	if _, err := NewUniform(2.5); err != nil {
		t.Errorf("NewUniform(2.5) failed: %v", err)
	}
}

func TestGaussianValidation(t *testing.T) {
	for _, s := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewGaussian(s); err == nil {
			t.Errorf("NewGaussian(%v) succeeded", s)
		}
	}
}

func TestUniformDensityCDF(t *testing.T) {
	u, _ := NewUniform(2)
	if d := u.Density(0); math.Abs(d-0.25) > 1e-12 {
		t.Errorf("Density(0) = %v, want 0.25", d)
	}
	if d := u.Density(3); d != 0 {
		t.Errorf("Density(3) = %v, want 0", d)
	}
	cases := []struct{ y, want float64 }{
		{-3, 0}, {-2, 0}, {0, 0.5}, {1, 0.75}, {2, 1}, {5, 1},
	}
	for _, c := range cases {
		if got := u.CDF(c.y); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("CDF(%v) = %v, want %v", c.y, got, c.want)
		}
	}
}

func TestGaussianDensityCDF(t *testing.T) {
	g, _ := NewGaussian(1)
	if d := g.Density(0); math.Abs(d-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Errorf("standard normal density at 0 = %v", d)
	}
	if c := g.CDF(0); math.Abs(c-0.5) > 1e-12 {
		t.Errorf("CDF(0) = %v, want 0.5", c)
	}
	if c := g.CDF(1.959963985); math.Abs(c-0.975) > 1e-6 {
		t.Errorf("CDF(1.96) = %v, want 0.975", c)
	}
	// symmetry
	if d := g.CDF(-1) + g.CDF(1); math.Abs(d-1) > 1e-12 {
		t.Errorf("CDF symmetry broken: %v", d)
	}
}

func TestConfidenceWidths(t *testing.T) {
	u, _ := NewUniform(10)
	// 95% of a uniform [-10,10] lies within [-9.5, 9.5]: width 19.
	if w := u.ConfidenceWidth(0.95); math.Abs(w-19) > 1e-12 {
		t.Errorf("uniform ConfidenceWidth = %v, want 19", w)
	}
	g, _ := NewGaussian(1)
	// 95% of N(0,1) lies within ±1.96: width 3.92.
	if w := g.ConfidenceWidth(0.95); math.Abs(w-3.919928) > 1e-4 {
		t.Errorf("gaussian ConfidenceWidth = %v, want 3.92", w)
	}
}

func TestConfidenceWidthEmpirical(t *testing.T) {
	// The nominal confidence width must actually contain ~conf of samples.
	r := prng.New(3)
	for _, m := range []Model{Uniform{Alpha: 5}, Gaussian{Sigma: 2}} {
		const n = 100000
		const conf = 0.9
		half := m.ConfidenceWidth(conf) / 2
		in := 0
		for i := 0; i < n; i++ {
			if math.Abs(m.Sample(r)) <= half {
				in++
			}
		}
		got := float64(in) / n
		if math.Abs(got-conf) > 0.01 {
			t.Errorf("%s: empirical confidence %v, want %v", m.Name(), got, conf)
		}
	}
}

func TestPrivacyLevelRoundTrip(t *testing.T) {
	f := func(levelRaw, widthRaw, confRaw uint16) bool {
		level := 0.05 + float64(levelRaw%400)/100 // 0.05 .. 4.04
		width := 1 + float64(widthRaw%10000)      // 1 .. 10000
		conf := 0.5 + float64(confRaw%49)/100     // 0.50 .. 0.98
		u, err := UniformForPrivacy(level, width, conf)
		if err != nil {
			return false
		}
		g, err := GaussianForPrivacy(level, width, conf)
		if err != nil {
			return false
		}
		return math.Abs(PrivacyLevel(u, width, conf)-level) < 1e-9 &&
			math.Abs(PrivacyLevel(g, width, conf)-level) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestForPrivacyValidation(t *testing.T) {
	bad := []struct{ level, width, conf float64 }{
		{0, 1, 0.95}, {-1, 1, 0.95}, {1, 0, 0.95}, {1, 1, 0}, {1, 1, 1}, {math.NaN(), 1, 0.95},
	}
	for _, c := range bad {
		if _, err := UniformForPrivacy(c.level, c.width, c.conf); err == nil {
			t.Errorf("UniformForPrivacy(%v,%v,%v) succeeded", c.level, c.width, c.conf)
		}
		if _, err := GaussianForPrivacy(c.level, c.width, c.conf); err == nil {
			t.Errorf("GaussianForPrivacy(%v,%v,%v) succeeded", c.level, c.width, c.conf)
		}
	}
	if _, err := ForPrivacy("cauchy", 1, 1, 0.95); err == nil {
		t.Error("unknown family accepted")
	}
	m, err := ForPrivacy("uniform", 1, 100, 0.95)
	if err != nil || m.Name() != "uniform" {
		t.Errorf("ForPrivacy(uniform) = %v, %v", m, err)
	}
	m, err = ForPrivacy("gaussian", 1, 100, 0.95)
	if err != nil || m.Name() != "gaussian" {
		t.Errorf("ForPrivacy(gaussian) = %v, %v", m, err)
	}
}

func TestPaperAlphaSigmaRelation(t *testing.T) {
	// At the same 95%-confidence privacy level, σ = 0.95/1.96 · α, i.e. the
	// Gaussian needs a smaller nominal spread than the uniform.
	u, _ := UniformForPrivacy(1, 100, 0.95)
	g, _ := GaussianForPrivacy(1, 100, 0.95)
	ratio := g.Sigma / u.Alpha
	want := 0.95 / 1.959963985
	if math.Abs(ratio-want) > 1e-6 {
		t.Errorf("sigma/alpha = %v, want %v", ratio, want)
	}
}

func TestSampleMomentsMatchModel(t *testing.T) {
	r := prng.New(9)
	u, _ := NewUniform(6)
	g, _ := NewGaussian(3)
	const n = 200000
	var su, sg, squ, sqg float64
	for i := 0; i < n; i++ {
		a, b := u.Sample(r), g.Sample(r)
		su += a
		sg += b
		squ += a * a
		sqg += b * b
	}
	if mean := su / n; math.Abs(mean) > 0.05 {
		t.Errorf("uniform noise mean = %v, want ~0", mean)
	}
	if mean := sg / n; math.Abs(mean) > 0.05 {
		t.Errorf("gaussian noise mean = %v, want ~0", mean)
	}
	// uniform variance = α²/3 = 12; gaussian variance = 9
	if v := squ / n; math.Abs(v-12) > 0.2 {
		t.Errorf("uniform noise variance = %v, want ~12", v)
	}
	if v := sqg / n; math.Abs(v-9) > 0.2 {
		t.Errorf("gaussian noise variance = %v, want ~9", v)
	}
}

// TestSupportRadii pins the Support contract for all three models: the
// uniform support is exact at any tail mass (including 0), unbounded models
// return +Inf at tail mass 0, and the quantile radii really contain all but
// tailMass of the mass (checked against the CDF).
func TestSupportRadii(t *testing.T) {
	u := Uniform{Alpha: 12}
	if u.Support(0) != 12 || u.Support(1e-3) != 12 {
		t.Errorf("uniform support = %v, %v; want exactly alpha", u.Support(0), u.Support(1e-3))
	}
	g := Gaussian{Sigma: 3}
	l := Laplace{B: 2}
	for _, m := range []Model{g, l} {
		if !math.IsInf(m.Support(0), 1) || !math.IsInf(m.Support(-1), 1) {
			t.Errorf("%s: tailMass <= 0 should give +Inf", m.Name())
		}
		for _, tail := range []float64{1e-2, 1e-6, 1e-12} {
			r := m.Support(tail)
			if !(r > 0) || math.IsInf(r, 0) {
				t.Fatalf("%s: Support(%g) = %v", m.Name(), tail, r)
			}
			outside := m.CDF(-r) + (1 - m.CDF(r))
			if outside > tail*1.001 { // erfinv/CDF round-trip is ~1e-4 relative at extreme tails
				t.Errorf("%s: Support(%g) = %v leaves %v mass outside", m.Name(), tail, r, outside)
			}
			// the radius is not wastefully loose: half the radius must leak
			// more than tailMass
			if half := m.CDF(-r/2) + (1 - m.CDF(r/2)); half <= tail {
				t.Errorf("%s: Support(%g) = %v is loose (half radius already within bound)", m.Name(), tail, r)
			}
		}
	}
	if z := g.Support(1); z != 0 {
		t.Errorf("gaussian Support(1) = %v, want 0", z)
	}
	if z := l.Support(1); z != 0 {
		t.Errorf("laplace Support(1) = %v, want 0", z)
	}
}

// TestSupportMonotonic checks that smaller tail masses give wider radii.
func TestSupportMonotonic(t *testing.T) {
	for _, sup := range []Model{Gaussian{Sigma: 5}, Laplace{B: 5}} {
		prev := 0.0
		for _, tail := range []float64{1e-1, 1e-3, 1e-6, 1e-9} {
			r := sup.Support(tail)
			if r <= prev {
				t.Fatalf("support not monotone: Support(%g) = %v after %v", tail, r, prev)
			}
			prev = r
		}
	}
}
