package cli

// Flag-validation error paths of ppdm-train: bad worker counts, illegal
// learner/mode combinations, and malformed numeric flags must be rejected
// with a non-zero exit and a message naming the problem.

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// trainFixtures generates a small perturbed train file and a clean test
// file for the error-path tests below.
func trainFixtures(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	trainFile := filepath.Join(dir, "train.csv")
	testFile := filepath.Join(dir, "test.csv")
	if _, errOut, code := runCmd(t, genCmd, []string{
		"-fn", "F1", "-n", "1500", "-seed", "3",
		"-perturb", "gaussian", "-privacy", "0.5", "-o", trainFile,
	}); code != 0 {
		t.Fatalf("gen train failed: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, []string{
		"-fn", "F1", "-n", "400", "-seed", "4", "-o", testFile,
	}); code != 0 {
		t.Fatalf("gen test failed: %s", errOut)
	}
	return trainFile, testFile
}

func TestTrainNegativeWorkers(t *testing.T) {
	trainFile, testFile := trainFixtures(t)
	_, errOut, code := runCmd(t, trainCmd, []string{
		"-train", trainFile, "-test", testFile,
		"-mode", "byclass", "-family", "gaussian", "-privacy", "0.5",
		"-workers", "-2",
	})
	if code == 0 {
		t.Fatal("negative -workers accepted")
	}
	if !strings.Contains(errOut, "Workers -2") {
		t.Errorf("error does not name the bad worker count: %s", errOut)
	}
}

func TestTrainMissingInputFlags(t *testing.T) {
	trainFile, testFile := trainFixtures(t)
	// Each of -train and -test is required on its own.
	if _, errOut, code := runCmd(t, trainCmd, []string{"-test", testFile}); code == 0 || !strings.Contains(errOut, "-train and -test") {
		t.Errorf("missing -train: exit %d, stderr %q", code, errOut)
	}
	if _, errOut, code := runCmd(t, trainCmd, []string{"-train", trainFile}); code == 0 || !strings.Contains(errOut, "-train and -test") {
		t.Errorf("missing -test: exit %d, stderr %q", code, errOut)
	}
	if _, _, code := runCmd(t, trainCmd, []string{"-train", filepath.Join(t.TempDir(), "nope.csv"), "-test", testFile}); code == 0 {
		t.Error("nonexistent training file accepted")
	}
}

func TestTrainBadLearnerModeCombos(t *testing.T) {
	trainFile, testFile := trainFixtures(t)
	cases := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "nb with global mode",
			args: []string{"-learner", "nb", "-mode", "global"},
			want: "unsupported mode global",
		},
		{
			name: "streamed unknown learner",
			args: []string{"-stream", "-learner", "forest"},
			want: `unknown learner "forest"`,
		},
		{
			name: "bad noise family",
			args: []string{"-mode", "byclass", "-family", "cauchy"},
			want: "cauchy",
		},
		{
			name: "bad confidence",
			args: []string{"-mode", "byclass", "-family", "gaussian", "-conf", "1.5"},
			want: "conf",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-train", trainFile, "-test", testFile, "-privacy", "0.5"}, tc.args...)
			_, errOut, code := runCmd(t, trainCmd, args)
			if code == 0 {
				t.Fatalf("%s accepted", tc.name)
			}
			if !strings.Contains(errOut, tc.want) {
				t.Errorf("error %q does not mention %q", errOut, tc.want)
			}
		})
	}
}

func TestTrainMalformedNumericFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-privacy", "high"},
		{"-intervals", "3.5"},
		{"-batch", "big"},
	} {
		if _, _, code := runCmd(t, trainCmd, args); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

// TestTrainStreamRejectsLocalMode drives a real gzipped record stream into
// the streamed tree path with -mode local, which has no out-of-core
// implementation and must be rejected with a pointer at in-memory Train.
func TestTrainStreamRejectsLocalMode(t *testing.T) {
	dir := t.TempDir()
	streamFile := filepath.Join(dir, "train.gz")
	testFile := filepath.Join(dir, "test.csv")
	if _, errOut, code := runCmd(t, genCmd, []string{
		"-fn", "F1", "-n", "1200", "-seed", "3",
		"-perturb", "gaussian", "-privacy", "0.5", "-stream", "-o", streamFile,
	}); code != 0 {
		t.Fatalf("gen stream failed: %s", errOut)
	}
	if _, errOut, code := runCmd(t, genCmd, []string{
		"-fn", "F1", "-n", "300", "-seed", "4", "-o", testFile,
	}); code != 0 {
		t.Fatalf("gen test failed: %s", errOut)
	}
	_, errOut, code := runCmd(t, trainCmd, []string{
		"-train", streamFile, "-test", testFile, "-stream",
		"-mode", "local", "-family", "gaussian", "-privacy", "0.5",
	})
	if code == 0 {
		t.Fatal("streamed local mode accepted")
	}
	if !strings.Contains(errOut, "Local mode") {
		t.Errorf("error does not explain the local/stream conflict: %s", errOut)
	}
}

// TestTrainStreamRejectsCSVInput pins the error when -stream is pointed at
// a plain CSV file instead of a gzipped record-batch stream.
func TestTrainStreamRejectsCSVInput(t *testing.T) {
	trainFile, testFile := trainFixtures(t)
	if _, _, code := runCmd(t, trainCmd, []string{
		"-train", trainFile, "-test", testFile, "-stream",
		"-mode", "byclass", "-family", "gaussian", "-privacy", "0.5",
	}); code == 0 {
		t.Error("-stream accepted a plain CSV training file")
	}
	_ = os.Remove(trainFile)
}
