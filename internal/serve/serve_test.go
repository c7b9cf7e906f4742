package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// newTestServer saves a fresh tree model and starts a server over it.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server, string) {
	t.Helper()
	_, modelBytes := trainTree(t, synth.F2, 1)
	path := filepath.Join(t.TempDir(), "model.json")
	writeModelAtomic(t, path, modelBytes)
	cfg.ModelPath = path
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, ts, path
}

// postJSON posts a JSON document and decodes the JSON answer into out.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
	}
	return resp.StatusCode
}

func TestClassifySingleAndBatch(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	clf := s.Current().Predictor
	records := testRecords(t, 20, 7)

	var single classifyResponse
	if code := postJSON(t, ts.URL+"/classify", map[string]any{"record": records[0]}, &single); code != http.StatusOK {
		t.Fatalf("single classify: status %d", code)
	}
	want, err := clf.Predict(records[0])
	if err != nil {
		t.Fatal(err)
	}
	if single.N != 1 || single.ClassIndices[0] != want {
		t.Fatalf("single classify: got %+v, want class %d", single, want)
	}

	var batch classifyResponse
	if code := postJSON(t, ts.URL+"/classify", map[string]any{"records": records}, &batch); code != http.StatusOK {
		t.Fatalf("batch classify: status %d", code)
	}
	if batch.N != len(records) {
		t.Fatalf("batch classify: n = %d, want %d", batch.N, len(records))
	}
	for i, rec := range records {
		want, _ := clf.Predict(rec)
		if batch.ClassIndices[i] != want {
			t.Fatalf("batch record %d: got %d, want %d", i, batch.ClassIndices[i], want)
		}
		if batch.Classes[i] != benchSchema().Classes[want] {
			t.Fatalf("batch record %d: class name %q does not match index %d", i, batch.Classes[i], want)
		}
	}
}

func TestClassifyRejectsMalformed(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	if code := postJSON(t, ts.URL+"/classify", map[string]any{}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty body: status %d, want 400", code)
	}
	if code := postJSON(t, ts.URL+"/classify", map[string]any{"record": []float64{1, 2}}, nil); code != http.StatusBadRequest {
		t.Fatalf("short record: status %d, want 400", code)
	}
	// A body nested one level past encoding/json's limit is refused, and
	// the server goes on answering.
	client := &http.Client{}
	if code, _, err := rawPost(client, ts.URL+"/classify", nestedBody(maxNestingDepth), nil); err != nil || code != http.StatusBadRequest {
		t.Fatalf("%d-deep body: status %d err %v, want 400", maxNestingDepth+1, code, err)
	}
	if code, _, err := rawPost(client, ts.URL+"/classify", classifyBody(t, record(1)), nil); err != nil || code != http.StatusOK {
		t.Fatalf("classify after the deep body: status %d err %v, want 200", code, err)
	}
	// A full-width record with a feature left null is refused, not
	// classified as if the feature were 0.
	withNull := bytes.Replace(classifyBody(t, record(1)), []byte(",0"), []byte(",null"), 1)
	if code, _, err := rawPost(client, ts.URL+"/classify", withNull, nil); err != nil || code != http.StatusBadRequest {
		t.Fatalf("record with a null feature %s: status %d err %v, want 400", withNull, code, err)
	}
	resp, err := http.Get(ts.URL + "/classify")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /classify: status %d, want 405", resp.StatusCode)
	}
}

// TestClassifyGzipStreamBody posts a gzipped record-batch file — exactly
// what ppdm-gen -stream writes — straight to /classify.
func TestClassifyGzipStreamBody(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{})
	table, err := synth.Generate(synth.Config{Function: synth.F2, N: 500, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	var gz bytes.Buffer
	w, err := stream.NewWriter(&gz, table.Schema())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stream.Copy(w, stream.FromTable(table, 128)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/classify", "application/gzip", bytes.NewReader(gz.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gzip classify: status %d", resp.StatusCode)
	}
	var sr streamClassifyResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.N != table.N() {
		t.Fatalf("gzip classify: n = %d, want %d", sr.N, table.N())
	}
	// Accuracy must equal the classifier's own evaluation of the same table.
	type evaluator interface {
		Predict(rec []float64) (int, error)
	}
	clf := s.Current().Predictor.(evaluator)
	correct := 0
	for i := 0; i < table.N(); i++ {
		p, err := clf.Predict(table.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if p == table.Label(i) {
			correct++
		}
	}
	if sr.Correct != correct {
		t.Fatalf("gzip classify: correct = %d, direct evaluation says %d", sr.Correct, correct)
	}
	total := 0
	for _, c := range sr.ClassCounts {
		total += c
	}
	if total != table.N() {
		t.Fatalf("gzip classify: class counts sum to %d, want %d", total, table.N())
	}
}

func TestPerturbDeterministicInSeed(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	records := testRecords(t, 5, 3)
	req := map[string]any{"family": "gaussian", "privacy": 1.0, "seed": 42, "records": records}

	var a, b perturbResponse
	if code := postJSON(t, ts.URL+"/perturb", req, &a); code != http.StatusOK {
		t.Fatalf("perturb: status %d", code)
	}
	if code := postJSON(t, ts.URL+"/perturb", req, &b); code != http.StatusOK {
		t.Fatalf("perturb: status %d", code)
	}
	if !reflect.DeepEqual(a.Records, b.Records) {
		t.Fatal("perturb with the same seed is not deterministic")
	}
	req["seed"] = 43
	var c perturbResponse
	postJSON(t, ts.URL+"/perturb", req, &c)
	if reflect.DeepEqual(a.Records, c.Records) {
		t.Fatal("perturb ignored the seed")
	}
	for i, rec := range a.Records {
		if reflect.DeepEqual(rec, records[i]) {
			t.Fatalf("record %d came back unperturbed", i)
		}
		if len(rec) != len(records[i]) {
			t.Fatalf("record %d changed width", i)
		}
	}

	if code := postJSON(t, ts.URL+"/perturb", map[string]any{"family": "nosuch", "privacy": 1.0, "records": records}, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown family: status %d, want 400", code)
	}
}

func TestHealthzAndStats(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz healthzResponse
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if hz.Status != "ok" || hz.Model.Format != "ppdm-classifier/1" || hz.Model.Generation != 1 {
		t.Fatalf("healthz: %+v", hz)
	}

	// Drive some traffic, twice the same record to exercise the cache.
	rec := testRecords(t, 1, 5)[0]
	postJSON(t, ts.URL+"/classify", map[string]any{"record": rec}, nil)
	postJSON(t, ts.URL+"/classify", map[string]any{"record": rec}, nil)

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	data := get("/stats")
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"generation", "batcher", "cache", "reloads", "model"} {
		if _, ok := fields[key]; !ok {
			t.Errorf("/stats lacks %q", key)
		}
	}
	// Per-endpoint counters are served once, on /metrics.
	if _, ok := fields["endpoints"]; ok {
		t.Errorf("/stats still carries per-endpoint counters: %s", data)
	}
	var st statsResponse
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Batcher.Records != 2 {
		t.Fatalf("batcher stats: %+v", st.Batcher)
	}
	if !st.Cache.Enabled || st.Cache.Hits < 1 {
		t.Fatalf("cache stats: %+v (want at least one hit from the repeated record)", st.Cache)
	}

	metrics := string(get("/metrics"))
	for _, line := range []string{
		`ppdm_serve_http_requests_total{endpoint="classify",code="200",generation="1"} 2`,
		`ppdm_serve_http_requests_total{endpoint="healthz",code="200",generation="1"} 1`,
	} {
		if !strings.Contains(metrics, line+"\n") {
			t.Fatalf("/metrics missing %q:\n%s", line, metrics)
		}
	}
}

// TestReloadSwapsFormats hot-swaps a tree model for a naive-Bayes model
// through /reload and checks both the generation bump and that the nb
// format serves.
func TestReloadSwapsFormats(t *testing.T) {
	s, ts, path := newTestServer(t, Config{})
	nb, nbBytes := trainNB(t, synth.F2, 2)
	writeModelAtomic(t, path, nbBytes)

	resp, err := http.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload: status %d", resp.StatusCode)
	}
	m := s.Current()
	if m.Format != "ppdm-nb/1" || m.Generation != 2 {
		t.Fatalf("after reload: format %q generation %d", m.Format, m.Generation)
	}

	rec := testRecords(t, 1, 9)[0]
	var cr classifyResponse
	if code := postJSON(t, ts.URL+"/classify", map[string]any{"record": rec}, &cr); code != http.StatusOK {
		t.Fatalf("classify after reload: status %d", code)
	}
	want, _ := nb.Predict(rec)
	if cr.ClassIndices[0] != want || cr.Model.Generation != 2 {
		t.Fatalf("classify after reload: %+v, want class %d gen 2", cr, want)
	}
}

// TestReloadKeepsOldModelOnFailure corrupts the model file and checks the
// old snapshot stays live.
func TestReloadKeepsOldModelOnFailure(t *testing.T) {
	s, ts, path := newTestServer(t, Config{})
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("reload of corrupt model: status %d, want 500", resp.StatusCode)
	}
	if m := s.Current(); m.Generation != 1 {
		t.Fatalf("corrupt reload replaced the model: generation %d", m.Generation)
	}
	// Server still answers.
	rec := testRecords(t, 1, 13)[0]
	if code := postJSON(t, ts.URL+"/classify", map[string]any{"record": rec}, nil); code != http.StatusOK {
		t.Fatalf("classify after failed reload: status %d", code)
	}
}

// TestLoadModelFileRejectsUnknownFormat checks the multi-format dispatch
// names both supported versions.
func TestLoadModelFileRejectsUnknownFormat(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.json")
	if err := os.WriteFile(path, []byte(`{"format":"ppdm-svm/1"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadModelFile(path, 0)
	if err == nil {
		t.Fatal("LoadModelFile accepted an unknown format")
	}
	for _, want := range []string{"ppdm-classifier/1", "ppdm-nb/1", "ppdm-svm/1"} {
		if !bytes.Contains([]byte(err.Error()), []byte(want)) {
			t.Fatalf("error %q does not mention %q", err, want)
		}
	}
}
