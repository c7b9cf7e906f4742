package cli

import (
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// sha256Hex is the hex SHA-256 of data.
func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// gunzipFile returns the decompressed payload of a gzip file.
func gunzipFile(t *testing.T, path string) []byte {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gz, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(gz)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRecordDigests pins the exact bytes ppdm-gen writes for three
// generator configurations, as plain CSV and as the gunzipped payload of
// -stream -batch 1000, and the exact stdout and saved model of in-memory
// ppdm-train (ByClass tree and naive Bayes) on a plain test CSV. Stdout
// names the input files, so the temporary directory is replaced by "$DIR"
// before hashing.
func TestRecordDigests(t *testing.T) {
	gens := []struct {
		name string
		args []string
		want string
	}{
		{"f2-clean", []string{"-fn", "F2", "-n", "30000"},
			"e7a7af96e7ef09ba59fe3563703a712a22ecc733d3723d6435942cf4ba96ecb9"},
		{"f1-gaussian", []string{"-fn", "F1", "-n", "20000", "-perturb", "gaussian"},
			"ff9998347f16d967ed4c8d318b13ac3498d03efa6fc3ff1bb0402aa01d4587c0"},
		{"f4-uniform", []string{"-fn", "F4", "-n", "20000", "-perturb", "uniform", "-privacy", "2", "-label-noise", "0.05"},
			"1148051d5933918c046b3576cb1013f9af7aa6205750bbb337e960761b7abad7"},
	}
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	for _, g := range gens {
		if _, errOut, code := runCmd(t, genCmd, append(append([]string{}, g.args...), "-o", path(g.name+".csv"))); code != 0 {
			t.Fatalf("%s: gen: %s", g.name, errOut)
		}
		if _, errOut, code := runCmd(t, genCmd, append(append([]string{}, g.args...),
			"-stream", "-batch", "1000", "-o", path(g.name+".csv.gz"))); code != 0 {
			t.Fatalf("%s: gen -stream: %s", g.name, errOut)
		}
		data, err := os.ReadFile(path(g.name + ".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(data); got != g.want {
			t.Errorf("%s: plain CSV digest %s, want %s", g.name, got, g.want)
		}
		if got := sha256Hex(gunzipFile(t, path(g.name+".csv.gz"))); got != g.want {
			t.Errorf("%s: gunzipped -stream digest %s, want %s", g.name, got, g.want)
		}
	}

	if _, errOut, code := runCmd(t, genCmd, []string{"-fn", "F1", "-n", "5000", "-seed", "9", "-o", path("test.csv")}); code != 0 {
		t.Fatalf("gen test: %s", errOut)
	}
	trains := []struct {
		learner          string
		wantOut, wantSav string
	}{
		{"tree",
			"de3281fd18195dd1550e58776e66517ca2842c981677a366a21674639a31dddb",
			"7b3fc49ab3fb09474f2a6a17e9933481ad71d32975f1e93d66700c5df9cfce7f"},
		{"nb",
			"53570f73bbe0e632e3dfc0de5b7b3d88476ce008d01fda60569a03ba48a58bd5",
			"43b4e25a99c756f4bb9d9b4f9ec78efdf46db3ad47abcff59cdbec78bb1f75a2"},
	}
	for _, tr := range trains {
		model := path(tr.learner + ".json")
		out, errOut, code := runCmd(t, trainCmd, []string{"-train", path("f1-gaussian.csv"), "-test", path("test.csv"),
			"-mode", "byclass", "-family", "gaussian", "-learner", tr.learner, "-save", model})
		if code != 0 {
			t.Fatalf("%s: train: %s", tr.learner, errOut)
		}
		if got := sha256Hex([]byte(strings.ReplaceAll(out, dir, "$DIR"))); got != tr.wantOut {
			t.Errorf("%s: stdout digest %s, want %s\n%s", tr.learner, got, tr.wantOut, out)
		}
		saved, err := os.ReadFile(model)
		if err != nil {
			t.Fatal(err)
		}
		if got := sha256Hex(saved); got != tr.wantSav {
			t.Errorf("%s: saved model digest %s, want %s", tr.learner, got, tr.wantSav)
		}
	}
}
