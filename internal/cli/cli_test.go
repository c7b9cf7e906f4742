package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, cmd func([]string, *bytes.Buffer, *bytes.Buffer) int, args []string) (string, string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := cmd(args, &out, &errBuf)
	return out.String(), errBuf.String(), code
}

// adapters so runCmd can take the real io.Writer-based commands
func benchCmd(args []string, out, errB *bytes.Buffer) int       { return Bench(args, out, errB) }
func genCmd(args []string, out, errB *bytes.Buffer) int         { return Gen(args, out, errB) }
func trainCmd(args []string, out, errB *bytes.Buffer) int       { return Train(args, out, errB) }
func reconstructCmd(args []string, out, errB *bytes.Buffer) int { return Reconstruct(args, out, errB) }

func TestBenchList(t *testing.T) {
	out, _, code := runCmd(t, benchCmd, []string{"-list"})
	if code != 0 {
		t.Fatalf("exit code %d", code)
	}
	for _, id := range []string{"E1", "E5", "E10"} {
		if !strings.Contains(out, id) {
			t.Errorf("list output missing %s", id)
		}
	}
}

func TestBenchTxFile(t *testing.T) {
	// A tiny transaction file with one dominant pattern; E12 must mine it
	// from the file instead of synthetic baskets and say so in the notes.
	path := filepath.Join(t.TempDir(), "tx.dat")
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
	out, errOut, code := runCmd(t, benchCmd, []string{"-run", "E12", "-txfile", path})
	if code != 0 {
		t.Fatalf("bench -txfile failed: %s", errOut)
	}
	if !strings.Contains(out, "streamed from "+path) {
		t.Errorf("E12 notes do not name the transaction file:\n%s", out)
	}
	if !strings.Contains(out, "2000 baskets") {
		t.Errorf("E12 notes do not report the file's basket count:\n%s", out)
	}
}

func TestBenchTxFileMissing(t *testing.T) {
	_, errOut, code := runCmd(t, benchCmd, []string{"-run", "E12", "-txfile", "/nonexistent/tx.dat"})
	if code == 0 {
		t.Fatal("missing transaction file accepted")
	}
	if !strings.Contains(errOut, "tx.dat") {
		t.Errorf("error does not name the file: %s", errOut)
	}
}

func TestBenchRunSingle(t *testing.T) {
	out, errOut, code := runCmd(t, benchCmd, []string{"-run", "E3", "-scale", "0.05", "-seed", "9"})
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, errOut)
	}
	if !strings.Contains(out, "salary") || !strings.Contains(out, "E3") {
		t.Errorf("unexpected E3 output:\n%s", out)
	}
}

func TestBenchUnknownExperiment(t *testing.T) {
	_, errOut, code := runCmd(t, benchCmd, []string{"-run", "E99", "-scale", "0.05"})
	if code == 0 {
		t.Fatal("unknown experiment succeeded")
	}
	if !strings.Contains(errOut, "E99") {
		t.Errorf("error output missing ID: %s", errOut)
	}
}

func TestBenchBadFlag(t *testing.T) {
	if _, _, code := runCmd(t, benchCmd, []string{"-bogus"}); code == 0 {
		t.Fatal("bad flag accepted")
	}
}

func TestGenToStdout(t *testing.T) {
	out, errOut, code := runCmd(t, genCmd, []string{"-fn", "F1", "-n", "50", "-seed", "3"})
	if code != 0 {
		t.Fatalf("exit code %d: %s", code, errOut)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 51 { // header + 50 records
		t.Fatalf("got %d lines, want 51", len(lines))
	}
	if !strings.HasPrefix(lines[0], "salary,") {
		t.Errorf("bad header: %s", lines[0])
	}
}

func TestGenBadFunction(t *testing.T) {
	if _, _, code := runCmd(t, genCmd, []string{"-fn", "F99"}); code == 0 {
		t.Fatal("bad function accepted")
	}
}

func TestGenBadPerturbFamily(t *testing.T) {
	if _, _, code := runCmd(t, genCmd, []string{"-n", "10", "-perturb", "cauchy"}); code == 0 {
		t.Fatal("bad family accepted")
	}
}

func TestGenTrainPipeline(t *testing.T) {
	dir := t.TempDir()
	trainFile := filepath.Join(dir, "train.csv")
	testFile := filepath.Join(dir, "test.csv")

	if _, errOut, code := runCmd(t, genCmd, []string{
		"-fn", "F2", "-n", "4000", "-seed", "3",
		"-perturb", "gaussian", "-privacy", "0.5", "-noise-seed", "4",
		"-o", trainFile,
	}); code != 0 {
		t.Fatalf("gen train failed: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, []string{
		"-fn", "F2", "-n", "1000", "-seed", "5", "-o", testFile,
	}); code != 0 {
		t.Fatalf("gen test failed: %s", errOut)
	}

	modelFile := filepath.Join(dir, "model.json")
	out, errOut, code := runCmd(t, trainCmd, []string{
		"-train", trainFile, "-test", testFile,
		"-mode", "byclass", "-family", "gaussian", "-privacy", "0.5",
		"-print-tree", "-save", modelFile,
	})
	if code != 0 {
		t.Fatalf("train failed: %s", errOut)
	}
	if !strings.Contains(errOut, "saved model") {
		t.Errorf("missing save confirmation: %s", errOut)
	}
	if data, err := os.ReadFile(modelFile); err != nil || !strings.Contains(string(data), "ppdm-classifier/1") {
		t.Errorf("model file missing or malformed: %v", err)
	}
	for _, want := range []string{"accuracy:", "tree size:", "confusion matrix", "tree:"} {
		if !strings.Contains(out, want) {
			t.Errorf("train output missing %q:\n%s", want, out)
		}
	}
	// accuracy should be printed and sane (>60% at 50% privacy)
	if !strings.Contains(out, "mode:       byclass") {
		t.Error("mode line missing")
	}
}

func TestTrainNaiveBayesLearner(t *testing.T) {
	dir := t.TempDir()
	trainFile := filepath.Join(dir, "train.csv")
	testFile := filepath.Join(dir, "test.csv")
	if _, errOut, code := runCmd(t, genCmd, []string{
		"-fn", "F1", "-n", "3000", "-seed", "13",
		"-perturb", "gaussian", "-privacy", "0.5", "-o", trainFile,
	}); code != 0 {
		t.Fatalf("gen train failed: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, []string{
		"-fn", "F1", "-n", "800", "-seed", "14", "-o", testFile,
	}); code != 0 {
		t.Fatalf("gen test failed: %s", errOut)
	}
	out, errOut, code := runCmd(t, trainCmd, []string{
		"-train", trainFile, "-test", testFile,
		"-mode", "byclass", "-family", "gaussian", "-privacy", "0.5",
		"-learner", "nb",
	})
	if code != 0 {
		t.Fatalf("nb train failed: %s", errOut)
	}
	if !strings.Contains(out, "learner:    nb") || !strings.Contains(out, "accuracy:") {
		t.Errorf("nb output unexpected:\n%s", out)
	}
	if strings.Contains(out, "tree size:") {
		t.Error("nb output mentions a tree")
	}
	// unknown learner rejected
	if _, _, code := runCmd(t, trainCmd, []string{
		"-train", trainFile, "-test", testFile, "-learner", "svm",
	}); code == 0 {
		t.Error("unknown learner accepted")
	}
	// nb rejects modes without a naive Bayes analogue
	if _, _, code := runCmd(t, trainCmd, []string{
		"-train", trainFile, "-test", testFile, "-learner", "nb", "-mode", "local",
	}); code == 0 {
		t.Error("nb with local mode accepted")
	}
}

func TestTrainValidation(t *testing.T) {
	if _, _, code := runCmd(t, trainCmd, []string{"-mode", "byclass"}); code == 0 {
		t.Fatal("missing files accepted")
	}
	dir := t.TempDir()
	f := filepath.Join(dir, "x.csv")
	if err := os.WriteFile(f, []byte("bad"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, code := runCmd(t, trainCmd, []string{"-train", f, "-test", f}); code == 0 {
		t.Fatal("malformed CSV accepted")
	}
	if _, _, code := runCmd(t, trainCmd, []string{"-train", f, "-test", f, "-mode", "bogus"}); code == 0 {
		t.Fatal("bad mode accepted")
	}
	if _, _, code := runCmd(t, trainCmd, []string{"-train", f, "-test", f, "-algorithm", "bogus"}); code == 0 {
		t.Fatal("bad algorithm accepted")
	}
}

func TestReconstructCommand(t *testing.T) {
	out, errOut, code := runCmd(t, reconstructCmd, []string{
		"-shape", "triangles", "-n", "5000", "-family", "gaussian",
		"-privacy", "0.5", "-k", "10", "-seed", "2",
	})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	for _, want := range []string{"midpoint", "reconstructed", "L1(original, perturbed)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestReconstructEMAlgorithm(t *testing.T) {
	out, errOut, code := runCmd(t, reconstructCmd, []string{
		"-shape", "plateau", "-n", "3000", "-family", "uniform",
		"-privacy", "1.0", "-k", "8", "-algorithm", "em", "-seed", "4",
	})
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errOut)
	}
	if !strings.Contains(out, "algorithm=em") || !strings.Contains(out, "converged=") {
		t.Errorf("em output unexpected:\n%s", out)
	}
}

func TestReconstructValidation(t *testing.T) {
	if _, _, code := runCmd(t, reconstructCmd, []string{"-shape", "bogus"}); code == 0 {
		t.Fatal("bad shape accepted")
	}
	if _, _, code := runCmd(t, reconstructCmd, []string{"-n", "0"}); code == 0 {
		t.Fatal("n=0 accepted")
	}
	if _, _, code := runCmd(t, reconstructCmd, []string{"-n", "10", "-algorithm", "bogus"}); code == 0 {
		t.Fatal("bad algorithm accepted")
	}
	if _, _, code := runCmd(t, reconstructCmd, []string{"-n", "10", "-family", "bogus"}); code == 0 {
		t.Fatal("bad family accepted")
	}
}

func TestGenToFileReportsCount(t *testing.T) {
	dir := t.TempDir()
	f := filepath.Join(dir, "out.csv")
	_, errOut, code := runCmd(t, genCmd, []string{"-fn", "F1", "-n", "25", "-o", f})
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(errOut, "wrote 25 records") {
		t.Errorf("stderr missing record count: %s", errOut)
	}
	data, err := os.ReadFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "salary,") {
		t.Error("file content malformed")
	}
}

// TestTailFlagHelpStatesDefault pins the -tail / -recon-tail help text to the
// banded-kernel contract documented in internal/reconstruct/doc.go: the
// implicit default is 1e-12 and a negative value selects dense rows.
func TestTailFlagHelpStatesDefault(t *testing.T) {
	for name, cmd := range map[string]func([]string, *bytes.Buffer, *bytes.Buffer) int{
		"reconstruct": reconstructCmd, "train": trainCmd,
	} {
		_, errOut, code := runCmd(t, cmd, []string{"-h"})
		if code != 2 {
			t.Fatalf("%s -h: exit %d, want 2", name, code)
		}
		for _, want := range []string{"default 1e-12", "negative = dense rows"} {
			if !strings.Contains(errOut, want) {
				t.Errorf("%s -h output missing %q:\n%s", name, want, errOut)
			}
		}
	}
}
