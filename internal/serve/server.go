package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
	"ppdm/internal/serve/middleware"
	"ppdm/internal/stream"
)

// DefaultCacheSize is the per-model prediction-cache capacity used when
// Config.CacheSize is zero.
const DefaultCacheSize = 4096

// Config parameterizes New.
type Config struct {
	// ModelPath is the saved model to serve (tree ppdm-classifier/1 or
	// naive-Bayes ppdm-nb/1 JSON); hot reload re-reads the same path.
	ModelPath string
	// Workers bounds the classification parallelism of each micro-batch
	// flush and each streamed-CSV batch (0 = all cores).
	Workers int
	// MaxBatch is the micro-batch flush size in records (0 =
	// DefaultMaxBatch).
	MaxBatch int
	// QueueDepth bounds the request queue in groups (0 =
	// DefaultQueueDepth); beyond it /classify answers 503.
	QueueDepth int
	// CacheSize bounds each model snapshot's prediction cache in entries
	// (0 = DefaultCacheSize, negative disables caching).
	CacheSize int
	// StreamBatch is the records-per-batch granularity for gzipped-CSV
	// request bodies (0 = stream.DefaultBatchSize).
	StreamBatch int
	// Rate is the per-client token-bucket limit in requests/second on
	// /classify and /perturb (0 disables rate limiting). Clients are
	// keyed by X-Ppdm-Client or remote address; over-budget requests
	// get 429 with Retry-After.
	Rate float64
	// Burst is the token-bucket burst capacity (0 = max(1, 2*Rate)).
	Burst int
	// MaxQueue is the queued-group threshold at which /classify and
	// /perturb shed load with an immediate 503 + Retry-After, before the
	// request body is parsed (0 = shed only at full queue capacity;
	// negative disables shedding).
	MaxQueue int
	// DefaultDeadline is the time budget applied to requests that carry
	// no X-Ppdm-Deadline header (0 = none). Expired requests are
	// rejected with 504 before reaching the model.
	DefaultDeadline time.Duration
}

// Server is the inference daemon: a model snapshot behind an atomic
// pointer, the micro-batcher feeding it, and the HTTP handlers. Create it
// with New, expose Handler over any http.Server, and Close it when done.
type Server struct {
	cfg     Config
	model   atomic.Pointer[Model]
	batcher *Batcher
	prom    *middleware.Metrics
	limiter *middleware.RateLimiter
	shedder *middleware.Shedder
	mux     *http.ServeMux
	start   time.Time

	// noShed switches /classify to the blocking SubmitWait path (queueing
	// into timeout instead of failing fast). It exists only so the
	// saturation benchmarks can measure the no-shedding baseline; the
	// serving path never sets it.
	noShed bool

	reloadMu   sync.Mutex // serializes Reload; swaps stay atomic for readers
	generation atomic.Int64
	reloads    atomic.Int64
}

// New loads the model and starts the micro-batcher. The returned server is
// ready to answer requests through Handler.
func New(cfg Config) (*Server, error) {
	if cfg.CacheSize == 0 {
		cfg.CacheSize = DefaultCacheSize
	}
	s := &Server{cfg: cfg, start: time.Now()}
	m, err := LoadModelFile(cfg.ModelPath, cfg.CacheSize)
	if err != nil {
		return nil, err
	}
	m.Generation = s.generation.Add(1)
	s.model.Store(m)
	s.batcher = NewBatcher(s.Current, cfg.MaxBatch, cfg.QueueDepth, cfg.Workers)

	// The traffic-hardening chain, outermost first: Prometheus metrics on
	// every endpoint, then per-client rate limiting, load shedding, and
	// dead-on-arrival rejection on the work endpoints only — /healthz,
	// /stats, /metrics, and /reload stay always-admitted so operators can
	// observe and fix an overloaded server.
	s.prom = middleware.NewMetrics(middleware.MetricsConfig{
		Namespace:  "ppdm_serve",
		Generation: func() int64 { return s.Current().Generation },
	})
	s.registerGauges()
	s.limiter = middleware.NewRateLimiter(cfg.Rate, cfg.Burst)
	s.shedder = middleware.NewShedder(s.batcher.QueueLoad, cfg.MaxQueue)
	work := func(name string, h http.Handler) http.Handler {
		return s.prom.Wrap(name, middleware.Chain(h,
			s.limiter.Middleware,
			s.shedder.Middleware,
			middleware.Deadline(cfg.DefaultDeadline),
		))
	}
	s.mux = http.NewServeMux()
	s.mux.Handle("/classify", work("classify", http.HandlerFunc(s.handleClassify)))
	s.mux.Handle("/perturb", work("perturb", http.HandlerFunc(s.handlePerturb)))
	s.mux.Handle("/healthz", s.prom.Wrap("healthz", http.HandlerFunc(s.handleHealthz)))
	s.mux.Handle("/stats", s.prom.Wrap("stats", http.HandlerFunc(s.handleStats)))
	s.mux.Handle("/reload", s.prom.Wrap("reload", http.HandlerFunc(s.handleReload)))
	s.mux.Handle("/metrics", s.prom.Wrap("metrics", s.prom.Handler()))
	return s, nil
}

// registerGauges exposes batcher, cache, and chain state on /metrics.
// Everything here is sampled at scrape time only; cache hit/miss counts
// are gauges, not counters, because each reload starts a fresh cache.
func (s *Server) registerGauges() {
	s.prom.Gauge("batch_queue_depth", "Request groups waiting in the bounded micro-batch queue.",
		func() float64 { d, _ := s.batcher.QueueLoad(); return float64(d) })
	s.prom.Gauge("batch_queue_capacity", "Bounded micro-batch queue capacity in groups.",
		func() float64 { _, c := s.batcher.QueueLoad(); return float64(c) })
	s.prom.Gauge("batch_largest_records", "High-watermark micro-batch flush size in records.",
		func() float64 { return float64(s.batcher.Stats().LargestBatch) })
	s.prom.Gauge("batch_inflight_records", "Records accepted by the micro-batcher but not yet answered.",
		func() float64 { return float64(s.batcher.Stats().InFlightRecords) })
	s.prom.Counter("batch_records_total", "Records classified through the micro-batcher.",
		func() float64 { return float64(s.batcher.Stats().Records) })
	s.prom.Counter("batch_queue_rejects_total", "Submissions bounced off the full micro-batch queue.",
		func() float64 { return float64(s.batcher.Stats().QueueRejects) })
	s.prom.Counter("deadline_rejects_total", "Requests expired before dispatch and rejected unclassified.",
		func() float64 { return float64(s.batcher.Stats().DeadlineRejects) })
	s.prom.Counter("shed_total", "Requests shed with 503 by the saturation middleware.",
		func() float64 { return float64(s.shedder.Shed()) })
	s.prom.Counter("throttled_total", "Requests rejected with 429 by the per-client rate limiter.",
		func() float64 { return float64(s.limiter.Throttled()) })
	s.prom.Gauge("cache_hits", "Prediction-cache hits of the live model snapshot.",
		func() float64 { h, _, _ := s.cacheCounts(); return float64(h) })
	s.prom.Gauge("cache_misses", "Prediction-cache misses of the live model snapshot.",
		func() float64 { _, m, _ := s.cacheCounts(); return float64(m) })
	s.prom.Gauge("cache_size", "Prediction-cache entries of the live model snapshot.",
		func() float64 { _, _, n := s.cacheCounts(); return float64(n) })
	s.prom.Gauge("model_generation", "Generation of the live model snapshot (bumps on hot reload).",
		func() float64 { return float64(s.Current().Generation) })
}

// cacheCounts samples the live snapshot's prediction cache.
func (s *Server) cacheCounts() (hits, misses int64, size int) {
	if c := s.Current().cache; c != nil {
		return c.stats()
	}
	return 0, 0, 0
}

// Handler returns the HTTP surface of the server.
func (s *Server) Handler() http.Handler { return s.mux }

// Current returns the live model snapshot.
func (s *Server) Current() *Model { return s.model.Load() }

// Close stops the micro-batcher, answering everything still queued.
func (s *Server) Close() { s.batcher.Close() }

// Reload re-reads the model file and atomically swaps the new snapshot in.
// Readers are never blocked: micro-batches already dispatched finish on the
// snapshot they loaded, and the fresh snapshot starts with an empty
// prediction cache. On failure the old model stays live.
func (s *Server) Reload() (*Model, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	m, err := LoadModelFile(s.cfg.ModelPath, s.cfg.CacheSize)
	if err != nil {
		return nil, err
	}
	m.Generation = s.generation.Add(1)
	s.model.Store(m)
	s.reloads.Add(1)
	return m, nil
}

// modelInfo is the model summary embedded in several responses.
type modelInfo struct {
	Format     string `json:"format"`
	Mode       string `json:"mode"`
	Path       string `json:"path"`
	Generation int64  `json:"generation"`
	LoadedAt   string `json:"loaded_at"`
	Classes    int    `json:"classes"`
	Attrs      int    `json:"attrs"`
}

// info summarizes a snapshot for responses.
func info(m *Model) modelInfo {
	return modelInfo{
		Format:     m.Format,
		Mode:       m.Mode,
		Path:       m.Path,
		Generation: m.Generation,
		LoadedAt:   m.LoadedAt.UTC().Format(time.RFC3339Nano),
		Classes:    m.Schema.NumClasses(),
		Attrs:      m.Schema.NumAttrs(),
	}
}

// writeJSON encodes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError answers a JSON error document.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// classifyRequest is the JSON body of POST /classify: one record or many.
// The hot path parses this shape by hand (see json.go); the struct remains
// the authoritative schema of the wire format.
type classifyRequest struct {
	Record  []float64   `json:"record"`
	Records [][]float64 `json:"records"`
}

// classifyResponse answers a JSON /classify request. As with
// classifyRequest, the hot path renders this shape by hand with identical
// field order and indentation.
type classifyResponse struct {
	N            int       `json:"n"`
	Classes      []string  `json:"classes"`
	ClassIndices []int     `json:"class_indices"`
	Cached       int       `json:"cached"`
	Model        modelInfo `json:"model"`
}

// classifyScratch bundles every per-request buffer of the JSON /classify
// path: the body bytes, the parsed float arena with its record headers,
// the prediction output, and the rendered response. Requests check one out
// of the pool, so a warmed-up server answers /classify without heap
// allocation (enforced by TestClassifyHandlerAllocs).
type classifyScratch struct {
	body    []byte
	values  []float64
	segs    []recSeg
	records [][]float64
	classes []int
	resp    []byte
}

var classifyScratchPool = sync.Pool{New: func() any { return new(classifyScratch) }}

// maxClassifyBody caps a JSON /classify body: 64 MiB, three times the
// ~20.5 MB body of 500,000 records. Larger bulk jobs belong on the gzipped
// CSV path, which streams in bounded memory.
const maxClassifyBody = 64 << 20

// errBodyTooLarge rejects a JSON /classify body over maxClassifyBody.
var errBodyTooLarge = fmt.Errorf("JSON body over %d bytes; send bulk records as a gzipped CSV stream", maxClassifyBody)

// readBody reads r to EOF into buf, reusing its capacity and doubling it
// only when the body outgrows it. A body over maxClassifyBody bytes returns
// errBodyTooLarge; buf never grows past the cap and the one byte that shows
// the body exceeds it.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			grown := make([]byte, len(buf), min(2*cap(buf), maxClassifyBody+1))
			copy(grown, buf)
			buf = grown
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxClassifyBody {
			return buf, errBodyTooLarge
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}

// streamClassifyResponse answers a gzipped-CSV /classify request: per-class
// counts (and accuracy against the labels the stream carries) instead of
// one entry per record.
type streamClassifyResponse struct {
	N           int            `json:"n"`
	ClassCounts map[string]int `json:"class_counts"`
	Correct     int            `json:"correct"`
	Accuracy    float64        `json:"accuracy"`
	Batches     int            `json:"batches"`
	Model       modelInfo      `json:"model"`
}

// handleClassify answers POST /classify. A JSON body rides the
// micro-batcher; a gzipped body (detected by the magic bytes, e.g. a file
// written by `ppdm-gen -stream`) is decoded as a CSV record stream and
// classified batch-by-batch in bounded memory against one snapshot.
//
// The JSON path is the serving hot loop and is engineered to be
// allocation-free in the steady state: the body lands in pooled scratch,
// the hand-rolled parser arenas the floats, predictions are written into a
// pooled slice by the batcher, and the response is rendered into a pooled
// buffer (see classifyScratch and json.go).
func (s *Server) handleClassify(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	sc := classifyScratchPool.Get().(*classifyScratch)
	defer classifyScratchPool.Put(sc)

	// Sniff the gzip magic from the first two body bytes without an
	// allocating buffered reader; a short (0-1 byte) body sniffs as JSON.
	if cap(sc.body) < 2 {
		sc.body = make([]byte, 0, 512)
	}
	head := sc.body[:2]
	n, err := io.ReadFull(r.Body, head)
	if err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if n == 2 && head[0] == 0x1f && head[1] == 0x8b {
		s.classifyStream(w, io.MultiReader(bytes.NewReader(head), r.Body))
		return
	}

	body, err := readBody(r.Body, sc.body[:n])
	sc.body = body[:0] // keep the grown capacity for the next request
	if errors.Is(err, errBodyTooLarge) {
		writeError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request: %w", err))
		return
	}
	if err := sc.parseClassifyRequest(body); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	records := sc.records
	if len(records) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`body needs "record" or "records"`))
		return
	}

	if cap(sc.classes) < len(records) {
		sc.classes = make([]int, len(records))
	}
	classes := sc.classes[:len(records)]
	deadline := middleware.RequestDeadline(r, s.cfg.DefaultDeadline)
	var (
		cached int
		m      *Model
	)
	if s.noShed {
		cached, m, err = s.batcher.SubmitWait(records, classes, deadline)
	} else {
		cached, m, err = s.batcher.SubmitDeadline(records, classes, deadline)
	}
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrStopped):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case errors.Is(err, ErrDeadlineExceeded):
		writeError(w, http.StatusGatewayTimeout, err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return
	}

	sc.resp = appendClassifyResponse(sc.resp[:0], m, classes, cached)
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(sc.resp)
}

// classifyStream drains a gzipped CSV record stream from the request body,
// classifying every batch on the worker engine against a single model
// snapshot (the stream bypasses the micro-batcher — it is already a batch).
func (s *Server) classifyStream(w http.ResponseWriter, body io.Reader) {
	m := s.Current()
	reader, err := stream.NewReader(body, m.Schema, s.cfg.StreamBatch)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	defer reader.Close()
	resp := streamClassifyResponse{ClassCounts: make(map[string]int), Model: info(m)}
	for {
		b, err := reader.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		records := make([][]float64, b.N())
		for i := range records {
			records[i] = b.Row(i)
		}
		preds, err := m.Predictor.ClassifyBatch(records, s.cfg.Workers)
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		for i, p := range preds {
			resp.ClassCounts[m.Schema.Classes[p]]++
			if p == b.Labels[i] {
				resp.Correct++
			}
		}
		resp.N += b.N()
		resp.Batches++
	}
	if resp.N == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty record stream"))
		return
	}
	resp.Accuracy = float64(resp.Correct) / float64(resp.N)
	writeJSON(w, http.StatusOK, resp)
}

// perturbRequest is the JSON body of POST /perturb: records to randomize
// plus the noise model to apply, named exactly as on the CLI.
type perturbRequest struct {
	Family  string      `json:"family"`
	Privacy float64     `json:"privacy"`
	Conf    float64     `json:"conf"`
	Seed    uint64      `json:"seed"`
	Records [][]float64 `json:"records"`
}

// perturbResponse returns the randomized records.
type perturbResponse struct {
	N       int         `json:"n"`
	Family  string      `json:"family"`
	Privacy float64     `json:"privacy"`
	Conf    float64     `json:"conf"`
	Seed    uint64      `json:"seed"`
	Records [][]float64 `json:"records"`
}

// handlePerturb answers POST /perturb: server-side randomization (paper §2)
// for clients that trust the collector. Each attribute receives noise of
// the requested family at the requested privacy level, scaled to that
// attribute's domain width in the model schema; the result is
// deterministic in the request seed.
func (s *Server) handlePerturb(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	var req perturbRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if len(req.Records) == 0 {
		writeError(w, http.StatusBadRequest, errors.New(`body needs "records"`))
		return
	}
	if req.Conf == 0 {
		req.Conf = noise.DefaultConfidence
	}
	m := s.Current()
	for _, rec := range req.Records {
		if err := m.CheckRecord(rec); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	models, err := noise.ModelsForAllAttrs(m.Schema, req.Family, req.Privacy, req.Conf)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	rng := prng.New(req.Seed)
	out := make([][]float64, len(req.Records))
	for i, rec := range req.Records {
		row := make([]float64, len(rec))
		for j, v := range rec {
			row[j] = v + models[j].Sample(rng)
		}
		out[i] = row
	}
	writeJSON(w, http.StatusOK, perturbResponse{
		N:       len(out),
		Family:  req.Family,
		Privacy: req.Privacy,
		Conf:    req.Conf,
		Seed:    req.Seed,
		Records: out,
	})
}

// healthzResponse answers GET /healthz.
type healthzResponse struct {
	Status   string    `json:"status"`
	UptimeMS float64   `json:"uptime_ms"`
	Model    modelInfo `json:"model"`
}

// handleHealthz answers GET /healthz: liveness plus the loaded model.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{
		Status:   "ok",
		UptimeMS: float64(time.Since(s.start).Nanoseconds()) / 1e6,
		Model:    info(s.Current()),
	})
}

// statsResponse answers GET /stats. Generation mirrors the snapshot's
// model.generation as a stable top-level integer so pollers (the gateway
// among them) can track reload progress without digging into the nested
// model object.
type statsResponse struct {
	Generation int64      `json:"generation"`
	Batcher    Stats      `json:"batcher"`
	Cache      cacheStats `json:"cache"`
	Reloads    int64      `json:"reloads"`
	Model      modelInfo  `json:"model"`
}

// cacheStats reports the live snapshot's prediction cache.
type cacheStats struct {
	Enabled  bool  `json:"enabled"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
}

// handleStats answers GET /stats with the model, reload, micro-batcher and
// cache state. Per-endpoint request counts and latency are served only on
// /metrics.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	m := s.Current()
	cs := cacheStats{}
	if m.cache != nil {
		cs.Enabled = true
		cs.Hits, cs.Misses, cs.Size = m.cache.stats()
		cs.Capacity = m.cache.cap
	}
	writeJSON(w, http.StatusOK, statsResponse{
		Generation: m.Generation,
		Batcher:    s.batcher.Stats(),
		Cache:      cs,
		Reloads:    s.reloads.Load(),
		Model:      info(m),
	})
}

// handleReload answers POST /reload: re-read the model file and swap it in
// atomically. SIGHUP triggers the same path in the CLI wrapper.
func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST required"))
		return
	}
	m, err := s.Reload()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "reloaded", "model": info(m)})
}
