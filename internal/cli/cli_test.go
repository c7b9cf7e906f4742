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
func genCmd(args []string, out, errB *bytes.Buffer) int         { return Gen(args, out, errB) }
func trainCmd(args []string, out, errB *bytes.Buffer) int       { return Train(args, out, errB) }
func reconstructCmd(args []string, out, errB *bytes.Buffer) int { return Reconstruct(args, out, errB) }

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
