package cli

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func evalCmd(args []string, out, errB *bytes.Buffer) int { return Eval(args, out, errB) }

// evalDirs writes a minimal scenario corpus (one cheap response scenario)
// and returns the scenario and baseline directories.
func evalDirs(t *testing.T) (string, string) {
	t.Helper()
	scenarios := t.TempDir()
	baselines := t.TempDir()
	spec := `{
  "name": "tiny-response",
  "description": "randomized-response smoke scenario",
  "kind": "response",
  "response": {"keep": 0.4, "prevalence": [0.6, 0.4], "n": 5000, "min_n": 100, "seed": 3}
}`
	if err := os.WriteFile(filepath.Join(scenarios, "tiny-response.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return scenarios, baselines
}

func TestEvalUpdateThenGate(t *testing.T) {
	scenarios, baselines := evalDirs(t)

	// Without a baseline the gates fail with a pointer at -update.
	out, _, code := runCmd(t, evalCmd, []string{"-scenarios", scenarios, "-baselines", baselines, "-scale", "0.5"})
	if code != 1 {
		t.Fatalf("gate run without baselines: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "no baseline for scale 0.5") {
		t.Errorf("output does not explain the missing baseline:\n%s", out)
	}

	// -update records the baseline; the same run then passes.
	if out, errOut, code := runCmd(t, evalCmd, []string{"-scenarios", scenarios, "-baselines", baselines, "-scale", "0.5", "-update"}); code != 0 {
		t.Fatalf("update failed: exit %d\n%s%s", code, out, errOut)
	}
	if _, err := os.Stat(filepath.Join(baselines, "tiny-response.json")); err != nil {
		t.Fatalf("baseline file not written: %v", err)
	}
	out, errOut, code := runCmd(t, evalCmd, []string{"-scenarios", scenarios, "-baselines", baselines, "-scale", "0.5"})
	if code != 0 {
		t.Fatalf("gated run failed after update: exit %d\n%s%s", code, out, errOut)
	}
	if !strings.Contains(out, "result: PASS") {
		t.Errorf("missing pass verdict:\n%s", out)
	}
}

func TestEvalFailureShowsPerMetricDiff(t *testing.T) {
	scenarios, baselines := evalDirs(t)
	if _, errOut, code := runCmd(t, evalCmd, []string{"-scenarios", scenarios, "-baselines", baselines, "-scale", "0.5", "-update"}); code != 0 {
		t.Fatalf("update failed: %s", errOut)
	}
	// Corrupt the committed privacy value — exact at 0.3 for a keep-0.4
	// two-category channel — so the rerun must fail with the per-metric
	// diff and leave the other gates passing.
	path := filepath.Join(baselines, "tiny-response.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mutated := strings.Replace(string(data), `"privacy": 0.3`, `"privacy": 0.8`, 1)
	if mutated == string(data) {
		t.Fatalf("baseline file has no exact privacy entry:\n%s", data)
	}
	if err := os.WriteFile(path, []byte(mutated), 0o644); err != nil {
		t.Fatal(err)
	}
	out, _, code := runCmd(t, evalCmd, []string{"-scenarios", scenarios, "-baselines", baselines, "-scale", "0.5"})
	if code != 1 {
		t.Fatalf("exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "FAIL tiny-response privacy") || !strings.Contains(out, "tolerance") {
		t.Errorf("missing per-metric diff:\n%s", out)
	}
	if !strings.Contains(out, "PASS tiny-response fidelity") {
		t.Errorf("untouched metric should still pass:\n%s", out)
	}
}

func TestEvalJSONDeterministicAcrossWorkers(t *testing.T) {
	scenarios, baselines := evalDirs(t)
	var outs [2]string
	for i, workers := range []string{"1", "8"} {
		out, errOut, code := runCmd(t, evalCmd, []string{
			"-scenarios", scenarios, "-baselines", baselines,
			"-scale", "0.5", "-workers", workers, "-json", "-timings=false",
		})
		if code != 1 { // no baselines: gates fail, but the report still renders
			t.Fatalf("exit %d\n%s", code, errOut)
		}
		outs[i] = out
	}
	if outs[0] != outs[1] {
		t.Error("deterministic JSON differs between -workers 1 and -workers 8")
	}
	if strings.Contains(outs[0], "throughput_rps") {
		t.Error("-timings=false output leaks throughput")
	}
}

func TestEvalList(t *testing.T) {
	scenarios, baselines := evalDirs(t)
	out, _, code := runCmd(t, evalCmd, []string{"-scenarios", scenarios, "-baselines", baselines, "-list"})
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "tiny-response") || !strings.Contains(out, "response") {
		t.Errorf("list output unexpected:\n%s", out)
	}
}

func TestEvalFlagValidation(t *testing.T) {
	scenarios, baselines := evalDirs(t)
	if _, _, code := runCmd(t, evalCmd, []string{"-bogus"}); code != 2 {
		t.Error("bad flag not rejected with exit 2")
	}
	if _, _, code := runCmd(t, evalCmd, []string{"-scale", "0"}); code != 2 {
		t.Error("-scale 0 not rejected with exit 2")
	}
	if _, _, code := runCmd(t, evalCmd, []string{"-scale", "-1"}); code != 2 {
		t.Error("negative -scale not rejected with exit 2")
	}
	if _, _, code := runCmd(t, evalCmd, []string{"-workers", "-1"}); code != 2 {
		t.Error("negative -workers not rejected with exit 2")
	}
	if _, errOut, code := runCmd(t, evalCmd, []string{"-scenarios", scenarios, "-baselines", baselines, "-run", "nope"}); code != 1 || !strings.Contains(errOut, `unknown scenario "nope"`) {
		t.Errorf("unknown -run scenario: exit %d, stderr %q", code, errOut)
	}
	if _, _, code := runCmd(t, evalCmd, []string{"-scenarios", filepath.Join(scenarios, "missing")}); code != 1 {
		t.Error("missing scenario dir not rejected")
	}
}

// assocFileScenario writes an assoc scenario that mines the transaction
// file at txPath, and returns the scenario and baseline directories.
func assocFileScenario(t *testing.T, txPath string) (string, string) {
	t.Helper()
	scenarios := t.TempDir()
	spec := fmt.Sprintf(`{
  "name": "tiny-txfile",
  "description": "frequent itemsets mined from a transaction file",
  "kind": "assoc",
  "assoc": {"file": %q, "flip": 0.1, "flip_seed": 3, "min_support": 0.1, "max_size": 3}
}`, txPath)
	if err := os.WriteFile(filepath.Join(scenarios, "tiny-txfile.json"), []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return scenarios, t.TempDir()
}

// TestEvalAssocFile mines a transaction file with one dominant pattern:
// -update records its baseline, and the gated rerun passes. The scenario
// sets no generator fields, so it can only run on the file.
func TestEvalAssocFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tx.dat")
	writeTxFile(t, path)
	scenarios, baselines := assocFileScenario(t, path)
	updateThenGateAssocFile(t, scenarios, baselines)
}

// writeTxFile writes 2000 transactions with one dominant pattern to path.
func writeTxFile(t *testing.T, path string) {
	t.Helper()
	var sb strings.Builder
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			sb.WriteString("1 2 5\n")
		} else {
			sb.WriteString("0 4\n")
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// updateThenGateAssocFile records the tiny-txfile scenario's baseline with
// -update, then checks that the gated rerun passes and recovers the file's
// itemsets exactly.
func updateThenGateAssocFile(t *testing.T, scenarios, baselines string) {
	t.Helper()
	args := []string{"-scenarios", scenarios, "-baselines", baselines}
	if out, errOut, code := runCmd(t, evalCmd, append(args, "-update")); code != 0 {
		t.Fatalf("update failed: exit %d\n%s%s", code, out, errOut)
	}
	out, errOut, code := runCmd(t, evalCmd, append(args, "-json", "-timings=false"))
	if code != 0 {
		t.Fatalf("gated run failed after update: exit %d\n%s%s", code, out, errOut)
	}
	// Both planted itemsets and all their subsets are frequent in the
	// clean file, and a 10% flip recovers exactly them.
	if !strings.Contains(out, `"accuracy": 1,`) {
		t.Errorf("itemsets of the file not recovered exactly:\n%s", out)
	}
}

// TestEvalAssocFileRelative names the transaction file relatively in the
// scenario and runs ppdm-eval from another directory: the file resolves
// against the scenario file's directory, not the working directory.
func TestEvalAssocFileRelative(t *testing.T) {
	scenarios, baselines := assocFileScenario(t, "tx.dat")
	writeTxFile(t, filepath.Join(scenarios, "tx.dat"))
	t.Chdir(t.TempDir())
	updateThenGateAssocFile(t, scenarios, baselines)
}

// TestEvalAssocFileMissing: a transaction file that does not exist fails
// the scenario with an error naming the path.
func TestEvalAssocFileMissing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing-tx.dat")
	scenarios, baselines := assocFileScenario(t, path)
	out, _, code := runCmd(t, evalCmd, []string{"-scenarios", scenarios, "-baselines", baselines})
	if code == 0 {
		t.Fatal("missing transaction file accepted")
	}
	if !strings.Contains(out, "ERROR tiny-txfile") || !strings.Contains(out, path) {
		t.Errorf("error does not name the file:\n%s", out)
	}
}
