package cli

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ppdm/internal/bayes"
	"ppdm/internal/core"
)

// trainAndSave runs ppdm-train with -save and returns the model path.
func trainAndSave(t *testing.T, dir, learner string, extra ...string) string {
	t.Helper()
	train := filepath.Join(dir, "train.csv")
	test := filepath.Join(dir, "test.csv")
	if code := Gen([]string{"-fn", "F2", "-n", "2000", "-seed", "1", "-perturb", "gaussian", "-privacy", "0.5", "-noise-seed", "2", "-o", train},
		new(bytes.Buffer), new(bytes.Buffer)); code != 0 {
		t.Fatal("gen train failed")
	}
	if code := Gen([]string{"-fn", "F2", "-n", "500", "-seed", "3", "-o", test},
		new(bytes.Buffer), new(bytes.Buffer)); code != 0 {
		t.Fatal("gen test failed")
	}
	model := filepath.Join(dir, learner+"-model.json")
	args := append([]string{"-train", train, "-test", test, "-mode", "byclass",
		"-family", "gaussian", "-privacy", "0.5", "-learner", learner, "-save", model}, extra...)
	var stdout, stderr bytes.Buffer
	if code := Train(args, &stdout, &stderr); code != 0 {
		t.Fatalf("train -learner %s failed: %s", learner, stderr.String())
	}
	if !strings.Contains(stderr.String(), "saved model to") {
		t.Fatalf("train did not report the save: %s", stderr.String())
	}
	return model
}

// TestTrainSaveNaiveBayes checks -save now works for -learner nb and the
// saved document round-trips through bayes.Load.
func TestTrainSaveNaiveBayes(t *testing.T) {
	model := trainAndSave(t, t.TempDir(), "nb")
	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	clf, err := bayes.Load(f)
	if err != nil {
		t.Fatalf("loading saved nb model: %v", err)
	}
	if clf.Mode != core.ByClass {
		t.Fatalf("loaded mode %v, want byclass", clf.Mode)
	}
	// The atomic write must not leave its temp file behind.
	leftovers, err := filepath.Glob(filepath.Join(filepath.Dir(model), "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(leftovers) != 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}

// TestTrainSaveTreeStillLoads guards the tree path after the refactor.
func TestTrainSaveTreeStillLoads(t *testing.T) {
	model := trainAndSave(t, t.TempDir(), "tree")
	f, err := os.Open(model)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := core.Load(f); err != nil {
		t.Fatalf("loading saved tree model: %v", err)
	}
}

// TestServeEndToEnd boots the daemon exactly as the binary would (real
// listener, signal loop) against a model trained through the CLI, queries
// it, and shuts it down.
func TestServeEndToEnd(t *testing.T) {
	dir := t.TempDir()
	model := trainAndSave(t, dir, "tree")

	addr := "127.0.0.1:18742"
	var stdout, stderr bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- Serve([]string{"-model", model, "-addr", addr}, &stdout, &stderr)
	}()

	base := "http://" + addr
	var hz struct {
		Status string `json:"status"`
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			err = json.NewDecoder(resp.Body).Decode(&hz)
			resp.Body.Close()
			if err == nil && hz.Status == "ok" {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v (stderr: %s)", err, stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	body := `{"record": [30, 50000, 10, 1, 5, 100000, 10, 250000, 2]}`
	resp, err := http.Post(base+"/classify", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var cr struct {
		N       int      `json:"n"`
		Classes []string `json:"classes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cr.N != 1 || len(cr.Classes) != 1 {
		t.Fatalf("classify: status %d body %+v", resp.StatusCode, cr)
	}

	// SIGINT must drain and exit 0 (the daemon's graceful-shutdown path).
	p, err := os.FindProcess(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	select {
	case code := <-done:
		if code != 0 {
			t.Fatalf("serve exited %d: %s", code, stderr.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down on SIGINT")
	}
	if !strings.Contains(stdout.String(), "serving ppdm-classifier/1 model") {
		t.Fatalf("startup banner missing: %s", stdout.String())
	}
}
