package reconstruct

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"ppdm/internal/noise"
)

// stateModel is the noise model every collector state test decodes under.
var stateModel = noise.Gaussian{Sigma: 10}

// stateCase is one wire state and whether NewCollectorFromState accepts it.
type stateCase struct {
	name string
	st   CollectorState
	ok   bool
}

// collectorStateCases builds a valid state from real observations,
// including two far beyond the band, and the hostile variants of it.
func collectorStateCases(t testing.TB) []stateCase {
	t.Helper()
	part, _ := NewPartition(0, 100, 20)
	c, err := NewCollector(part, stateModel)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddAll([]float64{-1e300, 3, 47.5, 47.9, 99, 1e300}); err != nil {
		t.Fatal(err)
	}
	good := c.State()
	with := func(edit func(*CollectorState)) CollectorState {
		st := good
		st.Counts = slices.Clone(good.Counts)
		edit(&st)
		return st
	}
	return []stateCase{
		{"valid", good, true},
		{"empty", with(func(st *CollectorState) { clear(st.Counts); st.N = 0 }), true},
		{"one cell too many", with(func(st *CollectorState) { st.Counts = append(st.Counts, 0) }), false},
		{"one cell too few", with(func(st *CollectorState) { st.Counts = st.Counts[1:] }), false},
		{"no cells", with(func(st *CollectorState) { st.Counts = nil }), false},
		{"negative cell", with(func(st *CollectorState) { st.Counts[3] = -1; st.N-- }), false},
		{"sum below n", with(func(st *CollectorState) { st.N++ }), false},
		{"sum above n", with(func(st *CollectorState) { st.N-- }), false},
		{"negative n", with(func(st *CollectorState) { clear(st.Counts); st.N = -1 }), false},
		{"overflowing sum", with(func(st *CollectorState) { st.Counts[0], st.Counts[1] = 1<<62, 1<<62; st.N = 1 << 62 }), false},
		{"huge k", with(func(st *CollectorState) { st.K, st.Hi = 1<<40, st.Lo+5*(1<<40) }), false},
		{"band wider than the limit", with(func(st *CollectorState) { st.Hi = st.Lo + 1e-9 }), false},
		{"bad partition", with(func(st *CollectorState) { st.Hi = st.Lo }), false},
	}
}

// TestCollectorStateValidation checks every hostile state is refused and
// the valid ones round-trip.
func TestCollectorStateValidation(t *testing.T) {
	for _, tc := range collectorStateCases(t) {
		c, err := NewCollectorFromState(tc.st, stateModel)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want accepted %v", tc.name, err, tc.ok)
			continue
		}
		if tc.ok && !slices.Equal(c.State().Counts, tc.st.Counts) {
			t.Errorf("%s: state did not round-trip", tc.name)
		}
	}
	if _, err := NewCollectorFromState(collectorStateCases(t)[0].st, noise.Uniform{Alpha: 1}); err == nil {
		t.Error("state accepted under a model with a different band")
	}
}

// FuzzCollectorState decodes arbitrary bytes as a collector wire state. An
// accepted state must round-trip through State byte for byte and
// reconstruct without panicking.
func FuzzCollectorState(f *testing.F) {
	for _, tc := range collectorStateCases(f) {
		data, err := json.Marshal(tc.st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var st CollectorState
		if json.Unmarshal(data, &st) != nil {
			return
		}
		c, err := NewCollectorFromState(st, stateModel)
		if err != nil {
			return
		}
		want, _ := json.Marshal(st)
		got, _ := json.Marshal(c.State())
		if !bytes.Equal(got, want) {
			t.Fatalf("state round-trip changed it:\n got %s\nwant %s", got, want)
		}
		if _, err := c.Reconstruct(Config{MaxIters: 3}); err != nil && c.N() > 0 {
			t.Fatalf("accepted state with %d observations failed to reconstruct: %v", c.N(), err)
		}
	})
}
