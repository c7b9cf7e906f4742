package ppdm_test

// Golden regression tests for the examples/ workloads: every example has a
// scenario under eval/scenarios and a committed baseline under
// eval/baselines, so its accuracy, privacy, and fidelity are pinned by the
// same gates ppdm-eval enforces. When a metric legitimately moves, rerun
// `ppdm-eval -update -scale 0.1` (and `-scale 1`) and commit the diff —
// these tests then follow the baselines, replacing the ad-hoc per-example
// assertions that used to live here.

import (
	"bytes"
	"testing"

	"ppdm/internal/eval"
)

// exampleScenarios maps each examples/ directory to its scenario name.
var exampleScenarios = []string{
	"quickstart",
	"creditscoring",
	"fraudscreening",
	"marketbasket",
	"medicalrecords",
	"onlinesurvey",
}

func TestExampleScenarioGoldens(t *testing.T) {
	specs, err := eval.LoadDir("eval/scenarios")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]*eval.Spec{}
	for _, s := range specs {
		byName[s.Name] = s
	}
	var selected []*eval.Spec
	for _, name := range exampleScenarios {
		s, ok := byName[name]
		if !ok {
			t.Fatalf("examples scenario %q missing from eval/scenarios", name)
		}
		selected = append(selected, s)
	}

	baselines, err := eval.LoadBaselines("eval/baselines")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := eval.Run(selected, eval.Config{Scale: 0.1, Baselines: baselines})
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range rep.Results {
		if res.Err != "" {
			t.Errorf("scenario %s: %s", res.Name, res.Err)
			continue
		}
		for _, g := range res.Gates {
			if g.Metric == "throughput" {
				continue // measured; the CI smoke enforces its floor
			}
			if g.Status != eval.StatusPass {
				t.Errorf("scenario %s metric %s: %s", res.Name, g.Metric, g.Detail)
			}
		}
	}
	if t.Failed() {
		var buf bytes.Buffer
		rep.Render(&buf, false)
		t.Logf("full report:\n%s", buf.String())
	}
}

// TestBaselinesKeepPaperOrderings pins the findings of the accuracy
// figures on the committed baselines at every recorded scale, so a
// re-recorded baseline cannot silently lose them: on E5 (F1, 100% gaussian
// privacy) original ≥ byclass ≥ local > randomized, and under E13's
// ε = 2 Laplace noise byclass beats randomized.
func TestBaselinesKeepPaperOrderings(t *testing.T) {
	baselines, err := eval.LoadBaselines("eval/baselines")
	if err != nil {
		t.Fatal(err)
	}
	accuracy := func(name, scale string) float64 {
		t.Helper()
		b := baselines[name]
		if b == nil {
			t.Fatalf("no baseline for %s", name)
		}
		pt, ok := b.Scales[scale]
		if !ok {
			t.Fatalf("baseline %s has no scale %s", name, scale)
		}
		return pt.Metrics["accuracy"]
	}
	for scale := range baselines["e05-accuracy-byclass"].Scales {
		orig := accuracy("e05-accuracy-original", scale)
		byClass := accuracy("e05-accuracy-byclass", scale)
		local := accuracy("e05-accuracy-local", scale)
		randomized := accuracy("e05-accuracy-randomized", scale)
		if !(orig >= byClass && byClass >= local && local > randomized) {
			t.Errorf("scale %s: E5 accuracies original %v, byclass %v, local %v, randomized %v break original ≥ byclass ≥ local > randomized",
				scale, orig, byClass, local, randomized)
		}
		if bc, rd := accuracy("e13-dp-laplace-byclass", scale), accuracy("e13-dp-laplace-randomized", scale); bc <= rd {
			t.Errorf("scale %s: E13 byclass accuracy %v not above randomized %v", scale, bc, rd)
		}
	}
}
