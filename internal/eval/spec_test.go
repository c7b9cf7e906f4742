package eval

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeScenario drops a scenario file into dir and returns its path.
func writeScenario(t *testing.T, dir, name, body string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const validClassify = `{
  "name": "demo",
  "classify": {
    "train": {"function": "F1", "n": 1000, "seed": 1},
    "test": {"function": "F1", "n": 500, "seed": 2},
    "noise": {"family": "gaussian", "privacy": 1.0, "seed": 3},
    "mode": "byclass"
  }
}`

func TestLoadFileDefaults(t *testing.T) {
	dir := t.TempDir()
	s, err := LoadFile(writeScenario(t, dir, "demo.json", validClassify))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EffectiveKind(); got != KindClassify {
		t.Errorf("default kind = %q, want %q", got, KindClassify)
	}
	// Missing gates default to DefaultTolerance on every deterministic
	// metric and no throughput gate — the documented behaviour.
	if len(s.Gates) != 0 {
		t.Errorf("expected no explicit gates, got %v", s.Gates)
	}
	want := []string{MetricAccuracy, MetricFidelity, MetricPrivacy}
	got := s.Metrics()
	if len(got) != len(want) {
		t.Fatalf("Metrics() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Metrics() = %v, want %v", got, want)
		}
	}
}

// invalidSpecs are scenario bodies the decoder must reject, each with a
// substring of the error it must give.
var invalidSpecs = []struct {
	name string
	body string
	want string // substring of the error
}{
	{
		name: "unknown top-level field",
		body: `{"name": "demo", "learner": "tree", "classify": {"train": {"function": "F1", "n": 10, "seed": 1}, "test": {"function": "F1", "n": 10, "seed": 2}, "mode": "original"}}`,
		want: `unknown field "learner"`,
	},
	{
		name: "unknown nested field",
		body: `{"name": "demo", "classify": {"train": {"function": "F1", "n": 10, "seed": 1}, "test": {"function": "F1", "n": 10, "seed": 2}, "mode": "original", "tolerance": 0.1}}`,
		want: `unknown field "tolerance"`,
	},
	{
		name: "malformed json has position",
		body: "{\n  \"name\": \"demo\",\n  \"kind\": }\n",
		want: ":3:12:",
	},
	{
		name: "wrong type has position",
		body: "{\n  \"name\": 7\n}",
		want: ":2:12:",
	},
	{
		name: "trailing data",
		body: validClassify + "\n{}",
		want: "trailing data",
	},
	{
		name: "missing kind spec",
		body: `{"name": "demo"}`,
		want: "exactly one of classify/reconstruct/assoc/response",
	},
	{
		name: "kind/spec mismatch",
		body: `{"name": "demo", "kind": "assoc", "response": {"keep": 0.5, "prevalence": [0.5, 0.5], "n": 10, "seed": 1}}`,
		want: `kind "assoc" but no assoc spec`,
	},
	{
		name: "uppercase name",
		body: strings.Replace(validClassify, `"demo"`, `"Demo"`, 1),
		want: "kebab-case",
	},
	{
		name: "bad mode",
		body: strings.Replace(validClassify, `"byclass"`, `"bycloss"`, 1),
		want: "bycloss",
	},
	{
		name: "bad learner",
		body: strings.Replace(validClassify, `"mode": "byclass"`, `"mode": "byclass", "learner": "svm"`, 1),
		want: `unknown learner "svm"`,
	},
	{
		name: "nb with local mode",
		body: strings.Replace(validClassify, `"mode": "byclass"`, `"mode": "local", "learner": "nb"`, 1),
		want: "learner nb does not support",
	},
	{
		name: "stream with local mode",
		body: strings.Replace(validClassify, `"mode": "byclass"`, `"mode": "local", "stream": true`, 1),
		want: "cannot stream",
	},
	{
		name: "batch without stream",
		body: strings.Replace(validClassify, `"mode": "byclass"`, `"mode": "byclass", "batch": 64`, 1),
		want: "apply only with stream",
	},
	{
		name: "original with noise",
		body: strings.Replace(validClassify, `"byclass"`, `"original"`, 1),
		want: "drop the noise spec",
	},
	{
		name: "reconstruction mode without noise",
		body: `{"name": "demo", "classify": {"train": {"function": "F1", "n": 10, "seed": 1}, "test": {"function": "F1", "n": 10, "seed": 2}, "mode": "byclass"}}`,
		want: "needs a noise spec",
	},
	{
		name: "bad noise family",
		body: strings.Replace(validClassify, `"gaussian"`, `"cauchy"`, 1),
		want: `unknown noise family "cauchy"`,
	},
	{
		name: "bad function",
		body: strings.Replace(validClassify, `"F1", "n": 1000`, `"F99", "n": 1000`, 1),
		want: "F99",
	},
	{
		name: "file and function both set",
		body: strings.Replace(validClassify, `"function": "F1", "n": 1000, "seed": 1`, `"function": "F1", "n": 1000, "seed": 1, "file": "x.csv"`, 1),
		want: "both file and function",
	},
	{
		name: "gate with both bounds",
		body: strings.Replace(validClassify, `"mode": "byclass"
  }`, `"mode": "byclass"
  },
  "gates": {"accuracy": {"tolerance": 0.1, "min_ratio": 0.5}}`, 1),
		want: "both tolerance and min_ratio",
	},
	{
		name: "gate with no bounds",
		body: strings.Replace(validClassify, `"mode": "byclass"
  }`, `"mode": "byclass"
  },
  "gates": {"accuracy": {}}`, 1),
		want: "neither tolerance nor min_ratio",
	},
	{
		name: "gate on unknown metric",
		body: strings.Replace(validClassify, `"mode": "byclass"
  }`, `"mode": "byclass"
  },
  "gates": {"f1": {"tolerance": 0.1}}`, 1),
		want: `gates unknown metric "f1"`,
	},
	{
		name: "gate on metric the kind lacks",
		body: `{"name": "demo", "kind": "response", "response": {"keep": 0.5, "prevalence": [0.5, 0.5], "n": 10, "seed": 1}, "gates": {"accuracy": {"tolerance": 0.1}}}`,
		want: `gates unknown metric "accuracy"`,
	},
	{
		name: "min_ratio on deterministic metric",
		body: strings.Replace(validClassify, `"mode": "byclass"
  }`, `"mode": "byclass"
  },
  "gates": {"accuracy": {"min_ratio": 0.9}}`, 1),
		want: "min_ratio gates only throughput",
	},
	{
		name: "assoc flip too large",
		body: `{"name": "demo", "kind": "assoc", "assoc": {"n": 10, "items": 5, "seed": 1, "flip": 0.5, "flip_seed": 2, "min_support": 0.1}}`,
		want: "flip probability",
	},
	{
		name: "response prevalence not a distribution",
		body: `{"name": "demo", "kind": "response", "response": {"keep": 0.5, "prevalence": [0.5, 0.1], "n": 10, "seed": 1}}`,
		want: "sums to",
	},
	{
		name: "reconstruct unknown shape",
		body: `{"name": "demo", "kind": "reconstruct", "reconstruct": {"shape": "spiky", "family": "uniform", "levels": [1], "n": 10, "seed": 1}}`,
		want: `unknown shape "spiky"`,
	},
	{
		name: "reconstruct bad algorithm",
		body: `{"name": "demo", "kind": "reconstruct", "reconstruct": {"shape": "plateau", "family": "uniform", "levels": [1], "n": 10, "seed": 1, "algorithm": "mcmc"}}`,
		want: `unknown reconstruction algorithm "mcmc"`,
	},
	{
		name: "assoc file with generator fields",
		body: `{"name": "demo", "kind": "assoc", "assoc": {"file": "tx.dat", "n": 100, "flip": 0.1, "flip_seed": 1, "min_support": 0.1}}`,
		want: "a transaction file sets no generator fields",
	},
}

func TestLoadFileErrors(t *testing.T) {
	for _, tc := range invalidSpecs {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			_, err := LoadFile(writeScenario(t, dir, "demo.json", tc.body))
			if err == nil {
				t.Fatalf("LoadFile accepted %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err.Error(), tc.want)
			}
		})
	}
}

func TestLoadDir(t *testing.T) {
	dir := t.TempDir()
	writeScenario(t, dir, "demo.json", validClassify)
	writeScenario(t, dir, "other.json", strings.Replace(validClassify, `"demo"`, `"other"`, 1))
	specs, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Name != "demo" || specs[1].Name != "other" {
		t.Fatalf("LoadDir returned %d specs (want demo, other in order)", len(specs))
	}
}

func TestLoadDirNameMismatch(t *testing.T) {
	dir := t.TempDir()
	writeScenario(t, dir, "misnamed.json", validClassify)
	_, err := LoadDir(dir)
	if err == nil || !strings.Contains(err.Error(), "must match the file name") {
		t.Fatalf("LoadDir accepted a name/filename mismatch: %v", err)
	}
}

func TestLoadDirEmpty(t *testing.T) {
	if _, err := LoadDir(t.TempDir()); err == nil {
		t.Fatal("LoadDir accepted an empty directory")
	}
}

// FuzzLoadSpec feeds arbitrary bytes to the scenario decoder. Whatever it
// accepts must pass Validate and re-encode through encoding/json to a spec
// that decodes to the same value, so a spec file round-trips.
func FuzzLoadSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "eval", "scenarios", "*.json"))
	if err != nil {
		f.Fatal(err)
	}
	if len(files) == 0 {
		f.Fatal("no committed scenarios to seed from")
	}
	for _, path := range files {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	for _, tc := range invalidSpecs {
		f.Add([]byte(tc.body))
	}
	// An empty gates object must decode as no gates, or it would not
	// survive re-encoding (omitempty drops it).
	f.Add([]byte(strings.Replace(validClassify, `"name": "demo",`, `"name": "demo", "gates": {},`, 1)))
	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := parseSpec("fuzz.json", raw)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("accepted spec fails Validate: %v", err)
		}
		enc, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not re-encode: %v", err)
		}
		back, err := parseSpec("fuzz.json", enc)
		if err != nil {
			t.Fatalf("re-encoded spec rejected: %v\n%s", err, enc)
		}
		if !reflect.DeepEqual(s, back) {
			t.Fatalf("re-encoded spec decodes differently:\n%+v\n%+v\n%s", s, back, enc)
		}
	})
}
