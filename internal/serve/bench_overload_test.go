package serve

// Saturation benchmarks for the hardening chain: a deliberately slow
// model (fixed per-flush service time) caps the server at a known
// request rate, and far more concurrent clients than that capacity
// offer traffic with a short client-side timeout. The three variants
// trace the goodput curve recorded in BENCH_serve.json:
//
//   Presaturation — offered load below capacity; every request
//   completes. This is the goodput ceiling the shed variant is
//   compared against.
//
//   Shed — offered load far above capacity with the bounded queue
//   shedding. Excess requests fail fast with 503, so the requests the
//   server does admit spend almost no time queued and finish well
//   inside the client timeout: goodput holds near the ceiling.
//
//   NoShed — the same overload with every hardening stage off: the
//   blocking SubmitWait path, no queue bound rejection, no deadline
//   propagation. Requests queue far past the client timeout, the
//   clients hang up, and the server spends most of its capacity
//   computing answers nobody is waiting for: goodput collapses.
//
// ns/op is per attempted request and mixes successes with rejections
// and timeouts; the metric that matters is goodput_rps (200s actually
// delivered per wall-clock second), reported per benchmark.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/url"
	"sync/atomic"
	"testing"
	"time"
)

// slowPredictor burns a fixed service time per batch, giving the server
// a hard, known capacity independent of host speed.
type slowPredictor struct {
	serviceTime time.Duration
	records     atomic.Int64
}

func (p *slowPredictor) Predict(rec []float64) (int, error) {
	time.Sleep(p.serviceTime)
	p.records.Add(1)
	return 0, nil
}

func (p *slowPredictor) ClassifyBatch(records [][]float64, workers int) ([]int, error) {
	time.Sleep(p.serviceTime)
	p.records.Add(int64(len(records)))
	return make([]int, len(records)), nil
}

// benchOverloadServer boots a chained server whose model is replaced by
// a slow predictor: 1ms per single-record flush = a 1000 flush/s ceiling.
func benchOverloadServer(b *testing.B, cfg Config) (*Server, string) {
	b.Helper()
	cfg.MaxBatch = 1 // one record per flush: capacity = 1/serviceTime
	cfg.Workers = 1
	s, ts, _ := newTestServer(b, cfg)
	s.model.Store(fakeModel(&slowPredictor{serviceTime: time.Millisecond}, 0))
	return s, ts.URL
}

// overloadLoop drives b.N requests from `clients` concurrent workers,
// each with a hard client-side timeout, and reports goodput (200s per
// second of wall clock) plus the rejected and abandoned fractions. Any
// failure other than 200, a fast typed rejection (503/504/429), or a
// client timeout fails the benchmark — overload must degrade along
// designed paths only.
func overloadLoop(b *testing.B, serverURL string, clients int, timeout time.Duration) {
	b.Helper()
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = clients * 2
	tr.MaxIdleConnsPerHost = clients * 2
	client := &http.Client{Transport: tr, Timeout: timeout}
	body, err := json.Marshal(map[string]any{"record": record(1)})
	if err != nil {
		b.Fatal(err)
	}

	var completed, rejected, abandoned, unexpected atomic.Int64
	b.SetParallelism(clients)
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			resp, err := client.Post(serverURL+"/classify", "application/json", bytes.NewReader(body))
			if err != nil {
				var ue *url.Error
				if errors.As(err, &ue) && ue.Timeout() {
					abandoned.Add(1) // client gave up waiting
				} else {
					unexpected.Add(1)
				}
				continue
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				completed.Add(1)
			case http.StatusServiceUnavailable, http.StatusGatewayTimeout, http.StatusTooManyRequests:
				rejected.Add(1)
			default:
				unexpected.Add(1)
			}
		}
	})
	b.StopTimer()
	elapsed := time.Since(start)
	if n := unexpected.Load(); n != 0 {
		b.Fatalf("%d requests failed outside the designed degradation paths", n)
	}
	if elapsed > 0 {
		b.ReportMetric(float64(completed.Load())/elapsed.Seconds(), "goodput_rps")
	}
	if total := completed.Load() + rejected.Load() + abandoned.Load(); total > 0 {
		b.ReportMetric(float64(rejected.Load())/float64(total), "rejected_frac")
		b.ReportMetric(float64(abandoned.Load())/float64(total), "abandoned_frac")
	}
}

// overloadTimeout is the client patience in the saturated variants: far
// above the admitted-request latency with shedding on (~10ms: queue of
// 8 plus one in flight at 1ms each), far below the unshed queue sojourn
// (64 clients deep at 1ms each).
const overloadTimeout = 25 * time.Millisecond

// BenchmarkServeOverloadPresaturation: 2 clients against a ~1000 rps
// ceiling — no contention, the goodput ceiling for the curve.
func BenchmarkServeOverloadPresaturation(b *testing.B) {
	_, serverURL := benchOverloadServer(b, Config{QueueDepth: 8})
	overloadLoop(b, serverURL, 2, overloadTimeout)
}

// BenchmarkServeOverloadShed: 64 clients against the same ceiling with
// the bounded queue shedding. Excess load turns into fast 503s, every
// admitted request beats the client timeout, and goodput holds near
// the presaturation ceiling.
func BenchmarkServeOverloadShed(b *testing.B) {
	_, serverURL := benchOverloadServer(b, Config{QueueDepth: 8})
	overloadLoop(b, serverURL, 64, overloadTimeout)
}

// BenchmarkServeOverloadNoShed: the collapse baseline — the same
// 64-client overload with the hardening chain disabled (blocking
// enqueue, no shedding, no deadline enforcement), the pre-chain
// behavior. Requests queue far past the client timeout and the server
// mostly serves already-abandoned work.
func BenchmarkServeOverloadNoShed(b *testing.B) {
	s, serverURL := benchOverloadServer(b, Config{QueueDepth: 8, MaxQueue: -1})
	s.noShed = true
	overloadLoop(b, serverURL, 64, overloadTimeout)
	// The collapse leaves thousands of orphaned handlers blocked on the
	// queue (their clients hung up long ago). Close the batcher now so
	// they fail out with ErrStopped instead of draining at one per
	// service time during server teardown. Close is idempotent, so the
	// regular cleanup is unaffected.
	s.Close()
}
