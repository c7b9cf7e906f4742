package cli

import (
	"bytes"
	"compress/gzip"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// `ppdm-gen -stream` must write gzipped batches whose payload is exactly
// the plain CSV ppdm-gen writes for the same seeds, at any batch size.
func TestGenStreamMatchesCSV(t *testing.T) {
	dir := t.TempDir()
	csvPath := filepath.Join(dir, "plain.csv")
	gzPath := filepath.Join(dir, "streamed.csv.gz")
	common := []string{"-fn", "F2", "-n", "5000", "-seed", "3", "-perturb", "gaussian", "-noise-seed", "4"}

	_, errOut, code := runCmd(t, genCmd, append(append([]string{}, common...), "-o", csvPath))
	if code != 0 {
		t.Fatalf("plain gen failed: %s", errOut)
	}
	_, errOut, code = runCmd(t, genCmd, append(append([]string{}, common...), "-stream", "-batch", "1234", "-o", gzPath))
	if code != 0 {
		t.Fatalf("streamed gen failed: %s", errOut)
	}
	if !strings.Contains(errOut, "streamed 5000 records") {
		t.Errorf("missing stream report: %s", errOut)
	}

	want, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(gzPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("gunzipped -stream output differs from plain CSV output")
	}
}

// The full streamed pipeline: gen -stream → train -stream -learner nb, with
// both a CSV and a streamed test set, must train and agree with the
// in-memory nb run on the same data.
func TestTrainStreamPipeline(t *testing.T) {
	dir := t.TempDir()
	trainGz := filepath.Join(dir, "train.csv.gz")
	trainCsv := filepath.Join(dir, "train.csv")
	testCsv := filepath.Join(dir, "test.csv")
	testGz := filepath.Join(dir, "test.csv.gz")

	genArgs := []string{"-fn", "F2", "-n", "4000", "-seed", "3", "-perturb", "gaussian", "-noise-seed", "4"}
	if _, errOut, code := runCmd(t, genCmd, append(append([]string{}, genArgs...), "-stream", "-o", trainGz)); code != 0 {
		t.Fatalf("gen -stream: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, append(append([]string{}, genArgs...), "-o", trainCsv)); code != 0 {
		t.Fatalf("gen: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, []string{"-fn", "F2", "-n", "1000", "-seed", "5", "-o", testCsv}); code != 0 {
		t.Fatalf("gen test: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, []string{"-fn", "F2", "-n", "1000", "-seed", "5", "-stream", "-o", testGz}); code != 0 {
		t.Fatalf("gen test stream: %s", errOut)
	}

	trainArgs := []string{"-mode", "byclass", "-family", "gaussian"}
	outMem, errOut, code := runCmd(t, trainCmd, append(append([]string{}, trainArgs...),
		"-learner", "nb", "-train", trainCsv, "-test", testCsv))
	if code != 0 {
		t.Fatalf("in-memory nb train: %s", errOut)
	}
	outStream, errOut, code := runCmd(t, trainCmd, append(append([]string{}, trainArgs...),
		"-learner", "nb", "-stream", "-batch", "777", "-train", trainGz, "-test", testCsv))
	if code != 0 {
		t.Fatalf("streamed nb train: %s", errOut)
	}

	pick := func(out, field string) string {
		for _, line := range strings.Split(out, "\n") {
			if strings.HasPrefix(line, field) {
				return strings.TrimSpace(strings.TrimPrefix(line, field))
			}
		}
		t.Fatalf("output missing %q:\n%s", field, out)
		return ""
	}
	if a, b := pick(outMem, "accuracy:"), pick(outStream, "accuracy:"); a != b {
		t.Errorf("streamed accuracy %q differs from in-memory %q", b, a)
	}
	if !strings.Contains(outStream, "4000 records") {
		t.Errorf("streamed train output missing record count:\n%s", outStream)
	}

	// Streamed test set (.gz) must agree too.
	outStreamGz, errOut, code := runCmd(t, trainCmd, append(append([]string{}, trainArgs...),
		"-learner", "nb", "-stream", "-train", trainGz, "-test", testGz))
	if code != 0 {
		t.Fatalf("streamed nb train with streamed test: %s", errOut)
	}
	if a, b := pick(outMem, "accuracy:"), pick(outStreamGz, "accuracy:"); a != b {
		t.Errorf("streamed-test accuracy %q differs from in-memory %q", b, a)
	}
}

// The streamed tree path: gen -stream → train -stream -learner tree must
// produce the byte-identical evaluation block (accuracy, tree size, printed
// tree) to the in-memory tree run on the same data, and support -save.
func TestTrainStreamTreeMatchesInMemory(t *testing.T) {
	dir := t.TempDir()
	trainGz := filepath.Join(dir, "train.csv.gz")
	trainCsv := filepath.Join(dir, "train.csv")
	testCsv := filepath.Join(dir, "test.csv")
	modelPath := filepath.Join(dir, "model.json")

	genArgs := []string{"-fn", "F3", "-n", "4000", "-seed", "7", "-perturb", "gaussian", "-noise-seed", "8"}
	if _, errOut, code := runCmd(t, genCmd, append(append([]string{}, genArgs...), "-stream", "-o", trainGz)); code != 0 {
		t.Fatalf("gen -stream: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, append(append([]string{}, genArgs...), "-o", trainCsv)); code != 0 {
		t.Fatalf("gen: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, []string{"-fn", "F3", "-n", "1000", "-seed", "9", "-o", testCsv}); code != 0 {
		t.Fatalf("gen test: %s", errOut)
	}

	trainArgs := []string{"-mode", "byclass", "-family", "gaussian", "-learner", "tree", "-print-tree"}
	outMem, errOut, code := runCmd(t, trainCmd, append(append([]string{}, trainArgs...),
		"-train", trainCsv, "-test", testCsv))
	if code != 0 {
		t.Fatalf("in-memory tree train: %s", errOut)
	}
	outStream, errOut, code := runCmd(t, trainCmd, append(append([]string{}, trainArgs...),
		"-stream", "-batch", "999", "-train", trainGz, "-test", testCsv, "-save", modelPath))
	if code != 0 {
		t.Fatalf("streamed tree train: %s", errOut)
	}

	// Everything from "accuracy:" down (metrics, confusion matrix, rendered
	// tree) must match byte for byte; the header lines name different
	// learner/paths by design.
	tail := func(out string) string {
		i := strings.Index(out, "accuracy:")
		if i < 0 {
			t.Fatalf("output missing accuracy block:\n%s", out)
		}
		return out[i:]
	}
	if a, b := tail(outMem), tail(outStream); a != b {
		t.Errorf("streamed tree evaluation differs from in-memory:\n--- in-memory ---\n%s\n--- streamed ---\n%s", a, b)
	}
	if _, err := os.Stat(modelPath); err != nil {
		t.Errorf("-save did not write the streamed tree model: %v", err)
	}
}

// Local mode cannot stream: it re-reconstructs from raw node-local values.
func TestTrainStreamTreeRejectsLocal(t *testing.T) {
	dir := t.TempDir()
	trainGz := filepath.Join(dir, "train.csv.gz")
	testCsv := filepath.Join(dir, "test.csv")
	if _, errOut, code := runCmd(t, genCmd, []string{"-fn", "F1", "-n", "500", "-seed", "1", "-perturb", "gaussian", "-stream", "-o", trainGz}); code != 0 {
		t.Fatalf("gen: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, []string{"-fn", "F1", "-n", "100", "-seed", "2", "-o", testCsv}); code != 0 {
		t.Fatalf("gen: %s", errOut)
	}
	_, errOut, code := runCmd(t, trainCmd, []string{"-stream", "-learner", "tree", "-mode", "local",
		"-family", "gaussian", "-train", trainGz, "-test", testCsv})
	if code == 0 {
		t.Fatal("-stream with local mode accepted")
	}
	if !strings.Contains(errOut, "materialized table") {
		t.Errorf("error does not explain the local-mode restriction: %s", errOut)
	}
}

func TestGenStreamBadBatchStillWorks(t *testing.T) {
	// Batch 0 resolves to the default; negative values too.
	out, errOut, code := runCmd(t, genCmd, []string{"-fn", "F1", "-n", "100", "-stream", "-batch", "-5", "-o", "-"})
	if code != 0 {
		t.Fatalf("gen -stream to stdout failed: %s", errOut)
	}
	gz, err := gzip.NewReader(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 101 { // header + 100 records
		t.Errorf("stdout stream has %d lines, want 101", lines)
	}
}

// In-memory ppdm-train reads a .gz -test file as a gzipped batch stream,
// as the -test help says, and scores it exactly as the plain CSV.
func TestTrainInMemoryGzipTestInput(t *testing.T) {
	dir := t.TempDir()
	trainCsv := filepath.Join(dir, "train.csv")
	testCsv := filepath.Join(dir, "test.csv")
	testGz := filepath.Join(dir, "test.csv.gz")
	if _, errOut, code := runCmd(t, genCmd, []string{"-fn", "F2", "-n", "3000", "-seed", "3", "-perturb", "gaussian", "-o", trainCsv}); code != 0 {
		t.Fatalf("gen train: %s", errOut)
	}
	test := []string{"-fn", "F2", "-n", "500", "-seed", "5"}
	if _, errOut, code := runCmd(t, genCmd, append(append([]string{}, test...), "-o", testCsv)); code != 0 {
		t.Fatalf("gen test: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, append(append([]string{}, test...), "-stream", "-o", testGz)); code != 0 {
		t.Fatalf("gen test -stream: %s", errOut)
	}
	for _, learner := range []string{"tree", "nb"} {
		args := []string{"-train", trainCsv, "-mode", "byclass", "-family", "gaussian", "-learner", learner}
		plain, errOut, code := runCmd(t, trainCmd, append(append([]string{}, args...), "-test", testCsv))
		if code != 0 {
			t.Fatalf("%s: plain test CSV: %s", learner, errOut)
		}
		gz, errOut, code := runCmd(t, trainCmd, append(append([]string{}, args...), "-test", testGz))
		if code != 0 {
			t.Fatalf("%s: gzipped test stream: %s", learner, errOut)
		}
		if want := strings.ReplaceAll(plain, testCsv, testGz); gz != want {
			t.Errorf("%s: gzipped test output\n%s\nwant\n%s", learner, gz, want)
		}
	}
}
