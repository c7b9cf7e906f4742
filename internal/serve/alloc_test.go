package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"ppdm/internal/synth"
)

// replayBody is a resettable request body, so one http.Request can be
// replayed without per-iteration allocations.
type replayBody struct {
	data []byte
	off  int
}

func (b *replayBody) Read(p []byte) (int, error) {
	if b.off >= len(b.data) {
		return 0, io.EOF
	}
	n := copy(p, b.data[b.off:])
	b.off += n
	return n, nil
}

func (b *replayBody) Close() error { return nil }
func (b *replayBody) reset()       { b.off = 0 }

// nullResponseWriter discards the response through a reusable header map.
type nullResponseWriter struct {
	header http.Header
	status int
	n      int
}

func (w *nullResponseWriter) Header() http.Header { return w.header }
func (w *nullResponseWriter) WriteHeader(code int) {
	w.status = code
}
func (w *nullResponseWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// newAllocServer boots a server for allocation measurement: a real trained
// tree model, MaxBatch 1 so every request flushes alone.
func newAllocServer(t *testing.T) *Server {
	t.Helper()
	_, modelBytes := trainTree(t, synth.F2, 1)
	path := filepath.Join(t.TempDir(), "model.json")
	writeModelAtomic(t, path, modelBytes)
	s, err := New(Config{ModelPath: path, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// measureClassifyAllocs replays one /classify request through the full
// handler chain (mux dispatch, instrumentation, micro-batcher, response
// rendering) and reports steady-state allocations per request.
func measureClassifyAllocs(t *testing.T, s *Server, body []byte) float64 {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/classify", nil)
	rb := &replayBody{data: body}
	req.Body = rb
	w := &nullResponseWriter{header: make(http.Header)}
	handler := s.Handler()
	do := func() {
		rb.reset()
		w.status = 0
		handler.ServeHTTP(w, req)
		if w.status != http.StatusOK {
			t.Fatalf("classify: status %d", w.status)
		}
	}
	// Warm up: fill the prediction cache, grow every pooled buffer to its
	// steady-state size, let the pools settle.
	for i := 0; i < 20; i++ {
		do()
	}
	return testing.AllocsPerRun(200, do)
}

// TestClassifyHandlerAllocs is the serving allocation contract of this
// change: after warm-up, the JSON /classify path — single record and
// multi-record batch alike — performs zero heap allocations per request,
// measured across the entire chain including the dispatcher goroutine.
func TestClassifyHandlerAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	s := newAllocServer(t)
	records := testRecords(t, 8, 3)

	single, err := json.Marshal(map[string]any{"record": records[0]})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := measureClassifyAllocs(t, s, single); allocs != 0 {
		t.Errorf("single-record /classify: %v allocs per request, want 0", allocs)
	}

	batch, err := json.Marshal(map[string]any{"records": records})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := measureClassifyAllocs(t, s, batch); allocs != 0 {
		t.Errorf("batch /classify: %v allocs per request, want 0", allocs)
	}
}

// TestSubmitAllocs pins the micro-batcher alone: a warmed-up Submit — the
// caller supplying the output slice — allocates nothing on either the
// cache-hit path or the PredictBins miss path (cache disabled).
func TestSubmitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; counts are only meaningful without -race")
	}
	clf, _ := trainTree(t, synth.F2, 2)
	records := testRecords(t, 4, 5)
	out := make([]int, len(records))

	for name, cacheSize := range map[string]int{"cache-hits": 256, "predict-bins-misses": 0} {
		m := &Model{Predictor: clf, Schema: clf.Schema, Partitions: clf.Partitions, Format: "test", Mode: "test"}
		if cacheSize > 0 {
			m.cache = newLRU(cacheSize)
		}
		b := NewBatcher(func() *Model { return m }, 1, 0, 1)
		for i := 0; i < 10; i++ {
			if _, _, err := b.Submit(records, out); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(200, func() {
			if _, _, err := b.Submit(records, out); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: Submit allocates %v per call, want 0", name, allocs)
		}
		b.Close()
	}
}

// spaceReader yields n ASCII spaces: a request body of any size that the
// test never holds in memory.
type spaceReader struct{ n int }

func (r *spaceReader) Read(p []byte) (int, error) {
	if r.n == 0 {
		return 0, io.EOF
	}
	k := min(len(p), r.n)
	for i := range p[:k] {
		p[i] = ' '
	}
	r.n -= k
	return k, nil
}

// TestClassifyBodyCap: a JSON /classify body one byte over maxClassifyBody
// gets a 413 with a JSON error, and a body at the cap is read whole without
// the buffer growing past the cap and the one byte that detects an excess.
func TestClassifyBodyCap(t *testing.T) {
	s := newAllocServer(t)
	req := httptest.NewRequest(http.MethodPost, "/classify", io.NopCloser(&spaceReader{n: maxClassifyBody + 1}))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("over-cap body: status %d, want 413: %s", w.Code, w.Body)
	}
	var resp struct{ Error string }
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil || resp.Error == "" {
		t.Fatalf("over-cap body: response %q is not a JSON error (%v)", w.Body, err)
	}

	buf, err := readBody(&spaceReader{n: maxClassifyBody}, make([]byte, 0, 512))
	if err != nil || len(buf) != maxClassifyBody {
		t.Fatalf("body at the cap: read %d bytes, %v", len(buf), err)
	}
	if cap(buf) > maxClassifyBody+1 {
		t.Fatalf("buffer grew to %d bytes, cap is %d", cap(buf), maxClassifyBody)
	}
}
