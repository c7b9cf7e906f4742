package stats

import (
	"math"
	"testing"
)

func TestQuantile(t *testing.T) {
	vs := []float64{9, 1, 3, 7, 5} // unsorted on purpose
	cases := []struct {
		q, want float64
	}{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.125, 2},
	}
	for _, c := range cases {
		got, err := Quantile(vs, c.q)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// input must not be mutated
	if vs[0] != 9 {
		t.Error("Quantile mutated its input")
	}
}

func TestQuantileErrors(t *testing.T) {
	if _, err := Quantile(nil, 0.5); err == nil {
		t.Error("Quantile(nil) succeeded")
	}
	if _, err := Quantile([]float64{1}, -0.1); err == nil {
		t.Error("Quantile(q<0) succeeded")
	}
	if _, err := Quantile([]float64{1}, 1.1); err == nil {
		t.Error("Quantile(q>1) succeeded")
	}
	if _, err := Quantile([]float64{1}, math.NaN()); err == nil {
		t.Error("Quantile(NaN) succeeded")
	}
}

func TestQuantileSingleElement(t *testing.T) {
	got, err := Quantile([]float64{42}, 0.7)
	if err != nil || got != 42 {
		t.Fatalf("Quantile single = %v, %v", got, err)
	}
}
