package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ppdm/internal/serve/middleware"
)

// rawPost sends one JSON body with optional headers and returns the
// status code and Retry-After header, draining the response. It is safe
// from any goroutine (no testing.T calls).
func rawPost(client *http.Client, url string, body []byte, hdr map[string]string) (status int, retryAfter string, err error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), nil
}

// classifyBody renders a single-record /classify body.
func classifyBody(t *testing.T, rec []float64) []byte {
	t.Helper()
	b, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// waitFor polls cond for up to 2 seconds.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShedBeforeTimeout saturates the micro-batch queue behind a gated
// model and asserts the next request is shed immediately — 503 with
// Retry-After, long before any client timeout — while every admitted
// request still completes once the model unblocks, and /healthz stays
// admitted throughout (the always-admit budget).
func TestShedBeforeTimeout(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxBatch: 1, QueueDepth: 2})
	gate := make(chan struct{})
	gated := &fakePredictor{gate: gate}
	s.model.Store(fakeModel(gated, 0))

	body := classifyBody(t, record(1))
	client := &http.Client{Timeout: 10 * time.Second}
	admitted := make(chan int, 3)
	for i := 0; i < 3; i++ {
		go func() {
			status, _, err := rawPost(client, ts.URL+"/classify", body, nil)
			if err != nil {
				status = -1
			}
			admitted <- status
		}()
		if i == 0 {
			// The first request must be mid-flush (holding the gate) before
			// the next two can pile into the queue.
			waitFor(t, "first flush to start", func() bool { return gated.calls.Load() >= 1 })
		}
	}
	waitFor(t, "queue to fill", func() bool { d, c := s.batcher.QueueLoad(); return d >= c })

	// The server is now saturated: one request mid-flush, two queued.
	// A fresh request must be rejected immediately, not queued into
	// timeout.
	start := time.Now()
	status, retryAfter, err := rawPost(client, ts.URL+"/classify", body, nil)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("shed took %v — the request queued instead of failing fast", elapsed)
	}
	if status != http.StatusServiceUnavailable {
		t.Fatalf("saturated /classify = %d, want 503", status)
	}
	if retryAfter == "" {
		t.Fatal("shed response without Retry-After")
	}
	if s.shedder.Shed() == 0 {
		t.Fatal("shed counter not incremented")
	}

	// The always-admit budget: health checks still answer while saturated.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("saturated /healthz = %d, want 200", resp.StatusCode)
	}

	close(gate)
	for i := 0; i < 3; i++ {
		if status := <-admitted; status != http.StatusOK {
			t.Fatalf("admitted request %d finished with %d, want 200", i, status)
		}
	}
}

// TestRateLimit429Isolation drives one greedy client past its token
// budget and asserts it is throttled with 429 + Retry-After while a
// polite client on the same server is untouched. The refill rate is
// near zero, so the outcome is deterministic regardless of timing.
func TestRateLimit429Isolation(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{Rate: 0.001, Burst: 2})
	body := classifyBody(t, record(1))
	client := &http.Client{Timeout: 10 * time.Second}

	var ok200, ok429 int
	for i := 0; i < 5; i++ {
		status, retryAfter, err := rawPost(client, ts.URL+"/classify", body,
			map[string]string{middleware.ClientHeader: "greedy"})
		if err != nil {
			t.Fatal(err)
		}
		switch status {
		case http.StatusOK:
			ok200++
		case http.StatusTooManyRequests:
			ok429++
			if retryAfter == "" {
				t.Fatal("429 without Retry-After")
			}
		default:
			t.Fatalf("greedy request %d = %d", i, status)
		}
	}
	if ok200 != 2 || ok429 != 3 {
		t.Fatalf("greedy client: %d×200 %d×429, want 2×200 3×429", ok200, ok429)
	}

	// One client exhausting its bucket must not starve another.
	status, _, err := rawPost(client, ts.URL+"/classify", body,
		map[string]string{middleware.ClientHeader: "polite"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusOK {
		t.Fatalf("polite client = %d, want 200 — starved by the greedy client", status)
	}
}

// TestDeadlineExpiredNeverReachesModel queues a deadlined request behind
// a gated flush, lets the deadline lapse, and asserts the request is
// answered 504 without its records ever reaching the predictor.
func TestDeadlineExpiredNeverReachesModel(t *testing.T) {
	s, ts, _ := newTestServer(t, Config{MaxBatch: 1, QueueDepth: 8})
	gate := make(chan struct{})
	gated := &fakePredictor{gate: gate}
	s.model.Store(fakeModel(gated, 0))

	body := classifyBody(t, record(1))
	client := &http.Client{Timeout: 10 * time.Second}

	first := make(chan int, 1)
	go func() {
		status, _, err := rawPost(client, ts.URL+"/classify", body, nil)
		if err != nil {
			status = -1
		}
		first <- status
	}()
	waitFor(t, "first flush to start", func() bool { return gated.calls.Load() >= 1 })

	// A 5ms-deadline request lands in the queue behind the gated flush.
	deadlined := make(chan int, 1)
	go func() {
		status, _, err := rawPost(client, ts.URL+"/classify", body,
			map[string]string{middleware.DeadlineHeader: "5ms"})
		if err != nil {
			status = -1
		}
		deadlined <- status
	}()
	waitFor(t, "deadlined request to queue", func() bool { d, _ := s.batcher.QueueLoad(); return d >= 1 })
	time.Sleep(25 * time.Millisecond) // let the 5ms budget lapse while queued
	close(gate)

	if status := <-first; status != http.StatusOK {
		t.Fatalf("gated request = %d, want 200", status)
	}
	if status := <-deadlined; status != http.StatusGatewayTimeout {
		t.Fatalf("expired request = %d, want 504", status)
	}
	if n := gated.records.Load(); n != 1 {
		t.Fatalf("predictor saw %d records, want 1 — the expired request reached the model", n)
	}
	if s.batcher.Stats().DeadlineRejects == 0 {
		t.Fatal("deadline_rejects counter not incremented")
	}

	// Dead on arrival: an already-expired budget is rejected before the
	// body is even parsed.
	status, _, err := rawPost(client, ts.URL+"/classify", body,
		map[string]string{middleware.DeadlineHeader: "-1ms"})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusGatewayTimeout {
		t.Fatalf("dead-on-arrival request = %d, want 504", status)
	}
}

// TestBatcherLoneSubmitNeverWaits pins the greedy flush: with nothing else
// queued, a lone submission is its own flush. 200 sequential deadlined
// submissions against an instant model must all be classified — a live
// deadline is no reason to reject — and finish far inside the time even a
// millisecond-scale wait per request would take.
func TestBatcherLoneSubmitNeverWaits(t *testing.T) {
	p := &fakePredictor{}
	b := NewBatcher(func() *Model { return fakeModel(p, 0) }, 64, 0, 1)
	defer b.Close()
	out := make([]int, 1)
	recs := [][]float64{record(1)}
	const submits = 200
	start := time.Now()
	for i := 0; i < submits; i++ {
		if _, _, err := b.SubmitDeadline(recs, out, time.Now().Add(time.Second)); err != nil {
			t.Fatalf("submit %d with a live deadline: %v", i, err)
		}
	}
	if elapsed := time.Since(start); elapsed >= 100*time.Millisecond {
		t.Fatalf("%d lone submits took %v — each waited before its flush", submits, elapsed)
	}
	if st := b.Stats(); st.Batches != submits {
		t.Fatalf("%d flushes for %d lone submits, want one each", st.Batches, submits)
	}
}

// TestSubmitWaitQueuesIntoTimeout pins the no-shedding baseline
// semantics the saturation bench relies on: with the queue full,
// SubmitWait blocks until the deadline instead of failing fast, while
// SubmitDeadline rejects immediately with ErrQueueFull.
func TestSubmitWaitQueuesIntoTimeout(t *testing.T) {
	gate := make(chan struct{})
	p := &fakePredictor{gate: gate}
	b := NewBatcher(func() *Model { return fakeModel(p, 0) }, 1, 1, 1)
	defer b.Close()

	var wg sync.WaitGroup
	var firstErr, secondErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		out := make([]int, 1)
		_, _, firstErr = b.Submit([][]float64{record(1)}, out)
	}()
	waitFor(t, "first flush to start", func() bool { return p.calls.Load() >= 1 })
	go func() {
		defer wg.Done()
		out := make([]int, 1)
		_, _, secondErr = b.Submit([][]float64{record(2)}, out)
	}()
	waitFor(t, "queue to fill", func() bool { d, c := b.QueueLoad(); return d >= c })

	out := make([]int, 1)
	if _, _, err := b.SubmitDeadline([][]float64{record(3)}, out, time.Time{}); err != ErrQueueFull {
		t.Fatalf("fail-fast submit on full queue = %v, want ErrQueueFull", err)
	}

	start := time.Now()
	_, _, err := b.SubmitWait([][]float64{record(3)}, out, time.Now().Add(50*time.Millisecond))
	elapsed := time.Since(start)
	if err != ErrDeadlineExceeded {
		t.Fatalf("blocking submit on full queue = %v, want ErrDeadlineExceeded", err)
	}
	if elapsed < 30*time.Millisecond {
		t.Fatalf("blocking submit returned after %v — it did not actually queue", elapsed)
	}

	close(gate)
	wg.Wait()
	if firstErr != nil || secondErr != nil {
		t.Fatalf("admitted submissions failed: %v, %v", firstErr, secondErr)
	}
}

// TestOverloadGoodputFloor hammers a small-queue server far past its
// capacity and asserts the failure mode is the designed one: every
// request is answered promptly with either a prediction or a 503 — no
// transport errors, no timeouts — and a healthy floor of requests
// completes despite the overload.
func TestOverloadGoodputFloor(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{QueueDepth: 4, MaxBatch: 8})
	body := classifyBody(t, record(1))
	client := &http.Client{Timeout: 2 * time.Second}

	const workers = 8
	var done, shed, other atomic.Int64
	stop := time.Now().Add(150 * time.Millisecond)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(stop) {
				status, retryAfter, err := rawPost(client, ts.URL+"/classify", body, nil)
				switch {
				case err != nil:
					other.Add(1)
				case status == http.StatusOK:
					done.Add(1)
				case status == http.StatusServiceUnavailable && retryAfter != "":
					shed.Add(1)
				default:
					other.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	if other.Load() != 0 {
		t.Fatalf("%d requests failed with something other than 200 or 503+Retry-After", other.Load())
	}
	if done.Load() < 20 {
		t.Fatalf("only %d requests completed under overload (sheds: %d) — goodput collapsed",
			done.Load(), shed.Load())
	}
	t.Logf("overload: %d completed, %d shed", done.Load(), shed.Load())
}

// TestMetricsEndpointGolden scrapes /metrics through the strict
// exposition checker and pins the load-bearing series: counter values
// and monotonicity, batcher gauges, and the generation label bump after
// a hot reload.
func TestMetricsEndpointGolden(t *testing.T) {
	_, ts, _ := newTestServer(t, Config{})
	body := classifyBody(t, record(1))
	client := &http.Client{Timeout: 10 * time.Second}

	scrape := func() string {
		t.Helper()
		resp, err := client.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/metrics = %d", resp.StatusCode)
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
			t.Fatalf("/metrics Content-Type = %q", ct)
		}
		if err := middleware.CheckExposition(data); err != nil {
			t.Fatalf("exposition invalid: %v\n%s", err, data)
		}
		return string(data)
	}
	wantLine := func(text, line string) {
		t.Helper()
		if !strings.Contains(text, line+"\n") {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}

	for i := 0; i < 2; i++ {
		if status, _, err := rawPost(client, ts.URL+"/classify", body, nil); err != nil || status != http.StatusOK {
			t.Fatalf("classify %d: status %d err %v", i, status, err)
		}
	}
	text := scrape()
	wantLine(text, `ppdm_serve_http_requests_total{endpoint="classify",code="200",generation="1"} 2`)
	wantLine(text, `ppdm_serve_http_request_duration_seconds_count{endpoint="classify"} 2`)
	wantLine(text, `ppdm_serve_batch_queue_capacity 256`)
	wantLine(text, `ppdm_serve_batch_records_total 2`)
	wantLine(text, `ppdm_serve_model_generation 1`)

	// Counters are monotonic across requests and scrapes.
	if status, _, err := rawPost(client, ts.URL+"/classify", body, nil); err != nil || status != http.StatusOK {
		t.Fatalf("classify: status %d err %v", status, err)
	}
	text = scrape()
	wantLine(text, `ppdm_serve_http_requests_total{endpoint="classify",code="200",generation="1"} 3`)

	// A hot reload bumps the generation label on subsequent requests;
	// the old generation's counters stay frozen and visible.
	resp, err := client.Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/reload = %d", resp.StatusCode)
	}
	if status, _, err := rawPost(client, ts.URL+"/classify", body, nil); err != nil || status != http.StatusOK {
		t.Fatalf("post-reload classify: status %d err %v", status, err)
	}
	text = scrape()
	wantLine(text, `ppdm_serve_http_requests_total{endpoint="classify",code="200",generation="1"} 3`)
	wantLine(text, `ppdm_serve_http_requests_total{endpoint="classify",code="200",generation="2"} 1`)
	wantLine(text, `ppdm_serve_model_generation 2`)
}
