package eval

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ppdm/internal/stats"
)

// responseSpec is a cheap scenario for runner and gate tests.
func responseSpec(t *testing.T, name string) *Spec {
	t.Helper()
	s := &Spec{
		Name: name,
		Kind: KindResponse,
		Response: &ResponseSpec{
			Keep:       0.3,
			Prevalence: []float64{0.7, 0.1, 0.2},
			N:          20000,
			Seed:       5,
		},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunResponseMetrics(t *testing.T) {
	rep, err := Run([]*Spec{responseSpec(t, "resp")}, Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := rep.Results[0]
	if res.Err != "" {
		t.Fatal(res.Err)
	}
	// The channel's misreport probability is exact: (1-keep)·(card-1)/card.
	wantPriv := 0.7 * 2.0 / 3.0
	if got := res.Metrics[MetricPrivacy]; math.Abs(got-wantPriv) > 1e-12 {
		t.Errorf("privacy = %v, want %v", got, wantPriv)
	}
	// 20k reports through a keep-0.3 channel recover prevalence well.
	if got := res.Metrics[MetricFidelity]; got < 0 || got > 0.1 {
		t.Errorf("fidelity = %v, want a small TV distance", got)
	}
	if res.Throughput <= 0 {
		t.Errorf("throughput = %v, want > 0", res.Throughput)
	}
}

func TestGateStatuses(t *testing.T) {
	s := responseSpec(t, "resp")
	// First run with no baselines: every gate is a no-baseline failure.
	rep, err := Run([]*Spec{s}, Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatal("report passed without baselines")
	}
	for _, g := range rep.Results[0].Gates {
		if g.Status != StatusNoBaseline {
			t.Errorf("gate %s status %q, want %q", g.Metric, g.Status, StatusNoBaseline)
		}
		if !strings.Contains(g.Detail, "-update") {
			t.Errorf("gate %s detail %q should point at ppdm-eval -update", g.Metric, g.Detail)
		}
	}

	// Record the run as the baseline: the same run must now pass, with the
	// documented DefaultTolerance on gates the scenario leaves implicit.
	dir := t.TempDir()
	if err := UpdateBaselines(dir, rep); err != nil {
		t.Fatal(err)
	}
	baselines, err := LoadBaselines(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep2, err := Run([]*Spec{s}, Config{Scale: 1, Baselines: baselines})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Passed() {
		var buf bytes.Buffer
		rep2.Render(&buf, false)
		t.Fatalf("identical rerun failed its own baseline:\n%s", buf.String())
	}
	for _, g := range rep2.Results[0].Gates {
		if g.Tolerance == nil || *g.Tolerance != DefaultTolerance {
			t.Errorf("gate %s tolerance = %v, want default %v", g.Metric, g.Tolerance, DefaultTolerance)
		}
	}

	// Shift a baseline value beyond tolerance: that metric (and only it)
	// must fail with a per-metric diff.
	baselines["resp"].Scales[ScaleKey(1)].Metrics[MetricPrivacy] += 10 * DefaultTolerance
	rep3, err := Run([]*Spec{s}, Config{Scale: 1, Baselines: baselines})
	if err != nil {
		t.Fatal(err)
	}
	if rep3.Passed() {
		t.Fatal("report passed against a shifted baseline")
	}
	for _, g := range rep3.Results[0].Gates {
		switch g.Metric {
		case MetricPrivacy:
			if g.Status != StatusFail {
				t.Errorf("privacy gate status %q, want fail", g.Status)
			}
			if !strings.Contains(g.Detail, "tolerance") {
				t.Errorf("privacy gate detail %q lacks the diff", g.Detail)
			}
		default:
			if g.Status != StatusPass {
				t.Errorf("gate %s status %q, want pass", g.Metric, g.Status)
			}
		}
	}
}

func TestBaselineScalesAreIndependent(t *testing.T) {
	s := responseSpec(t, "resp")
	dir := t.TempDir()
	rep, err := Run([]*Spec{s}, Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := UpdateBaselines(dir, rep); err != nil {
		t.Fatal(err)
	}
	// A different scale has no baseline point yet even though the file
	// exists; recording it merges a second scale into the same file.
	baselines, err := LoadBaselines(dir)
	if err != nil {
		t.Fatal(err)
	}
	repHalf, err := Run([]*Spec{s}, Config{Scale: 0.5, Baselines: baselines})
	if err != nil {
		t.Fatal(err)
	}
	if repHalf.Passed() {
		t.Fatal("scale 0.5 passed against a scale-1-only baseline")
	}
	if err := UpdateBaselines(dir, repHalf); err != nil {
		t.Fatal(err)
	}
	baselines, err = LoadBaselines(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := baselines["resp"]
	if len(b.Scales) != 2 {
		t.Fatalf("baseline has %d scales after merging, want 2", len(b.Scales))
	}
	for _, key := range []string{ScaleKey(1), ScaleKey(0.5)} {
		if _, ok := b.Scales[key]; !ok {
			t.Errorf("baseline lacks scale %s", key)
		}
	}
}

func TestBaselineValidate(t *testing.T) {
	cases := []struct {
		name string
		body string
		want string
	}{
		{"scenario mismatch", `{"scenario": "other", "scales": {"1": {"metrics": {"privacy": 1}}}}`, "must match the file name"},
		{"unknown field", `{"scenario": "b", "scales": {"1": {"metrics": {"privacy": 1}}}, "extra": 1}`, `unknown field "extra"`},
		{"no scales", `{"scenario": "b", "scales": {}}`, "no scales"},
		{"bad scale key", `{"scenario": "b", "scales": {"fast": {"metrics": {"privacy": 1}}}}`, "not a positive number"},
		{"non-canonical scale key", `{"scenario": "b", "scales": {"0.10": {"metrics": {"privacy": 1}}}}`, "not canonical"},
		{"unknown metric", `{"scenario": "b", "scales": {"1": {"metrics": {"f1": 0.5}}}}`, `unknown metric "f1"`},
		{"throughput as metric", `{"scenario": "b", "scales": {"1": {"metrics": {"throughput": 5}}}}`, `unknown metric "throughput"`},
		{"no metrics", `{"scenario": "b", "scales": {"1": {"metrics": {}}}}`, "no metrics"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "b.json"), []byte(tc.body), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadBaselines(dir)
			if err == nil {
				t.Fatalf("LoadBaselines accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestLoadBaselinesMissingDirIsEmpty(t *testing.T) {
	b, err := LoadBaselines(filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatal(err)
	}
	if len(b) != 0 {
		t.Fatalf("missing dir yielded %d baselines", len(b))
	}
}

// TestReportStripsTimings checks the deterministic rendering: with timings
// off, throughput values and throughput gates must not appear, while the
// full rendering keeps them.
func TestReportStripsTimings(t *testing.T) {
	s := responseSpec(t, "resp")
	ratio := 0.5
	s.Gates = map[string]Gate{MetricThroughput: {MinRatio: &ratio}}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	rep, err := Run([]*Spec{s}, Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	var with, without bytes.Buffer
	if err := rep.JSON(&with, true); err != nil {
		t.Fatal(err)
	}
	if err := rep.JSON(&without, false); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(with.String(), "throughput_rps") {
		t.Error("timings rendering lacks throughput")
	}
	if strings.Contains(without.String(), "throughput_rps") {
		t.Error("deterministic rendering leaks throughput values")
	}
	if strings.Contains(without.String(), `"metric": "throughput"`) {
		t.Error("deterministic rendering leaks the throughput gate")
	}
	// Stripping is a copy: the original report still carries its timings.
	if rep.Results[0].Throughput <= 0 {
		t.Error("stripping mutated the original report")
	}
}

func TestRunScenarioErrorIsReported(t *testing.T) {
	// A file dataset pointing nowhere fails at run time, not load time; the
	// matrix must carry the error instead of aborting the other scenarios.
	bad := &Spec{
		Name: "missing-file",
		Classify: &ClassifySpec{
			Train: DataSpec{File: "does-not-exist.csv"},
			Test:  DataSpec{Function: "F1", N: 500, Seed: 2},
			Mode:  "original",
		},
	}
	if err := bad.Validate(); err != nil {
		t.Fatal(err)
	}
	bad.dir = t.TempDir()
	rep, err := Run([]*Spec{bad, responseSpec(t, "resp")}, Config{Scale: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Err == "" {
		t.Error("missing-file scenario reported no error")
	}
	if rep.Results[1].Err != "" {
		t.Errorf("healthy scenario failed: %s", rep.Results[1].Err)
	}
	if rep.Passed() {
		t.Error("report with an errored scenario passed")
	}
}

// TestReconSeriesBeatsRandomized checks the point of the E1 and E2 figures
// on their committed scenarios: at every privacy level the reconstructed
// distribution is closer in L1 to the original than the randomized
// histogram is.
func TestReconSeriesBeatsRandomized(t *testing.T) {
	for _, name := range []string{"e01-recon-plateau-uniform", "e02-recon-triangles-gaussian"} {
		s, err := LoadFile(filepath.Join("..", "..", "eval", "scenarios", name+".json"))
		if err != nil {
			t.Fatal(err)
		}
		r := s.Reconstruct
		truth, points, err := reconSeries(r, scaledN(r.N, 0.05, r.MinN, DefaultMinSamples), 0)
		if err != nil {
			t.Fatal(err)
		}
		for i, pt := range points {
			raw, err := stats.L1(truth, pt.randomized)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := stats.L1(truth, pt.reconstructed)
			if err != nil {
				t.Fatal(err)
			}
			if rec >= raw {
				t.Errorf("%s privacy %v: reconstructed L1 %v not below randomized %v", name, r.Levels[i], rec, raw)
			}
		}
	}
}
