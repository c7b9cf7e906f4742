package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"ppdm"
	"ppdm/internal/serve"
)

// Serving workload inputs.
const (
	serveTrainRecords = 100_000 // ByClass model trained in set-up
	queryPool         = 20_000  // clean records the queries draw from
	probeRecords      = 256     // records whose served answers are checked one by one
	groupShare        = 0.2     // share of requests carrying a group of records
	groupSize         = 8       // records in a group request
	zipfS             = 1.1     // skew of the query draw over the pool
	rateProbes        = 5       // bisection steps of the max-rate search
	rateCeiling       = 64000.0
)

// Shares of the timed window. An untraced run spends the last two shares on
// closed loops, one of mixed requests and one of groupSize-record requests;
// a traced run spends them on bulk requests and on the max-rate search.
// They sum to 1.
const (
	shareR1000 = 0.3
	shareR4000 = 0.2
	shareLoop  = 0.25 // each of the last two phases
)

// The phases take turns serveRounds times in the window, or fewer so that
// a round lasts at least minRoundSeconds. The max-rate search of a traced
// run follows the rounds.
const (
	serveRounds     = 10
	minRoundSeconds = 2.0
)

// serveState is the serve workload's set-up: an in-process server on a
// loopback listener, the generator's connections to it, the locally loaded
// copy of the served model, and the query pool.
type serveState struct {
	srv    *serve.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve returns
	host   string
	conns  []*httpConn
	local  *ppdm.Classifier
	pool   *ppdm.Table
	bulk   []byte // the pool as one gzipped-CSV request
	seeds  []uint64
	// deltas sums the server's counter deltas over the rounds of each
	// named phase of a traced run.
	deltas map[string]map[string]float64
}

// serveClassify drives the HTTP → middleware → micro-batcher → cache →
// flat-tree path: open loop at fixed rates of 1000 and 4000 req/s, then
// closed-loop saturation of both connections, with mixed requests and with
// groupSize-record requests. The phases take turns over serveRounds rounds,
// so that each is sampled across the whole window: the host's speed wanders
// from second to second, and one contiguous phase would measure whichever
// seconds it fell on. main_per_s is the median saturated request rate over
// 100 ms slices, second_per_s the median saturated record rate of group
// requests, op_p50_ms the p50 latency at 1000 req/s, and quality the
// accuracy the server reports for the query pool sent as one bulk body
// after the window. Every phase starts from a collected heap, so what one
// phase allocated does not pace the next one's garbage collection.
//
// A traced run replaces the closed loops by repeated bulk gzipped-CSV
// bodies, which bypass the batcher and the cache, and by the max-rate
// search after the rounds.
func serveClassify(r *run) error {
	sd := seeds(r.seed, 9)
	st, err := setUp(r, func() (*serveState, error) { return startServing(r, sd) }, (*serveState).stop)
	if err != nil {
		return err
	}
	defer st.stop()

	budget := r.budget.Seconds()
	rounds := max(1, min(serveRounds, int(budget/minRoundSeconds)))
	loopSeconds := budget * shareLoop / float64(rounds) // one round of a closed loop
	// Each open-loop phase's requests are rendered before the window and
	// dealt out round by round. On a traced run, half the 1000 req/s
	// requests run bare and half between /metrics scrapes, which gives the
	// tracing overhead.
	nR1000 := max(rounds, int(1000*budget*shareR1000))
	var bareReqs [][]byte
	if r.trace {
		nR1000 /= 2
		bareReqs = st.requests(nR1000, 0, st.seeds[3])
	}
	r1000Reqs := st.requests(nR1000, 0, st.seeds[4])
	r4000Reqs := st.requests(max(rounds, int(4000*budget*shareR4000)), 0, st.seeds[5])
	mixedReqs := st.requests(max(1, int(4000*budget*shareLoop)), 0, st.seeds[6])
	var groupReqs [][]byte
	if !r.trace {
		groupReqs = st.requests(max(1, int(4000*budget*shareLoop)), groupSize, st.seeds[8])
	}
	deal := func(reqs [][]byte, k int) [][]byte {
		return reqs[k*len(reqs)/rounds : (k+1)*len(reqs)/rounds]
	}

	var (
		r1000, r4000, bare phaseResult
		mixed, groups      loopResult
		bulk               = bulkResult{consistent: true}
		allocBytes         uint64 // heap allocated by the named fixed-rate phases
	)
	// fixed runs one round's share of an open-loop phase and adds it to
	// total. Only a named phase is bracketed by scrapes on a traced run.
	fixed := func(total *phaseResult, name string, rate float64, reqs [][]byte) error {
		phase := func() phaseResult { return openLoop(st.conns, reqs, rate) }
		runtime.GC()
		a0 := allocated()
		var p phaseResult
		if name == "" {
			p = phase()
		} else {
			var err error
			if p, err = st.tracedPhase(r, name, phase); err != nil {
				return err
			}
			allocBytes += allocated() - a0
		}
		total.add(p)
		r.attempted += len(p.ok)
		r.failed += p.failures
		return nil
	}
	for k := 0; k < rounds; k++ {
		if r.trace {
			if err := fixed(&bare, "", 1000, deal(bareReqs, k)); err != nil {
				return err
			}
		}
		if err := fixed(&r1000, "r1000", 1000, deal(r1000Reqs, k)); err != nil {
			return err
		}
		if err := fixed(&r4000, "r4000", 4000, deal(r4000Reqs, k)); err != nil {
			return err
		}
		runtime.GC()
		if r.trace {
			if _, err := st.tracedPhase(r, "bulk", func() phaseResult {
				st.bulkLoop(&bulk, loopSeconds)
				return phaseResult{}
			}); err != nil {
				return err
			}
			continue
		}
		mixed.add(closedLoop(st.conns, mixedReqs, loopSeconds))
		runtime.GC()
		groups.add(closedLoop(st.conns, groupReqs, loopSeconds))
	}
	if !r.trace {
		st.bulkLoop(&bulk, 0) // one bulk request, for quality
	}

	// A phase that the generator released late is reported, not failed:
	// its requests were served, and their latency, timed from the due
	// time, includes the lateness.
	for _, p := range []phaseResult{r1000, r4000} {
		if !p.punctual() {
			fmt.Fprintf(os.Stderr, "benchmark: %.0f req/s phase ran late: generator lateness p99 %.2f ms\n", p.rate, p.latenessP99())
		}
	}
	r.metrics["alloc_mb_per_op"] = mb(float64(allocBytes) / float64(len(r1000.ok)+len(r4000.ok)))
	r.metrics["op_p50_ms"] = r1000.quantile(0.5)
	r.metrics["loadgen.p99_ms_r1000"] = r1000.quantile(0.99)
	r.metrics["loadgen.p50_ms_r4000"] = r4000.quantile(0.5)
	r.metrics["loadgen.p99_ms_r4000"] = r4000.quantile(0.99)
	r.metrics["loadgen.lateness_p99_ms_r1000"] = r1000.latenessP99()
	r.metrics["loadgen.lateness_p99_ms_r4000"] = r4000.latenessP99()

	r.attempted += bulk.requests
	r.failed += bulk.failed
	if len(bulk.seconds) == 0 {
		return errors.New("no bulk request succeeded")
	}
	r.check(bulk.consistent, "bulk answers disagree on the record count or the correct count")
	r.metrics["quality"] = bulk.accuracy

	if r.trace {
		r.metrics["loadgen.bulk_records_per_s"] = float64(st.pool.N()) / median(bulk.seconds)
		r.metrics["trace.overhead"] = r1000.quantile(0.5) / bare.quantile(0.5)
		for _, p := range []struct {
			name string
			res  phaseResult
		}{{"r1000", r1000}, {"r4000", r4000}, {"bulk", phaseResult{}}} {
			st.phaseMetrics(r, p.name, p.res)
		}
		runtime.GC()
		r.metrics["loadgen.max_rate_p99_5ms"] = maxRate(st.conns, mixedReqs, budget*shareLoop/rateProbes, []phaseResult{r1000, r4000})
	} else {
		for _, l := range []loopResult{mixed, groups} {
			r.attempted += l.requests
			r.failed += l.failed
		}
		r.metrics["main_per_s"] = median(mixed.sliceRates)
		r.metrics["second_per_s"] = median(groups.sliceRates) * groupSize
	}

	// The probe set, answered after every phase filled the cache, must
	// still match the local model record for record.
	return st.checkProbe(r)
}

// maxRate is the highest offered rate whose p99 stays within p99LimitMS
// with no failures and no growing backlog, found by bisecting in log space
// between the highest fixed-rate phase that met the limit and rateCeiling.
// A probe offers at most the given seconds' worth of reqs. Probe requests
// are not ops: a probe past capacity is meant to fail.
func maxRate(cs []*httpConn, reqs [][]byte, seconds float64, fixed []phaseResult) float64 {
	lo, hi := 0.0, rateCeiling
	for _, p := range fixed {
		if p.meetsLimit() {
			lo = p.rate
		}
	}
	if lo == 0 {
		return 0
	}
	for i := 0; i < rateProbes; i++ {
		mid := math.Sqrt(lo * hi)
		n := min(len(reqs), int(mid*seconds))
		if openLoop(cs, reqs[:n], mid).meetsLimit() {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// startServing trains and saves the model, starts the server behind a
// loopback listener, and warms it up: the probe set is checked, which opens
// the connections, and zipf-drawn groups fill the prediction cache.
func startServing(r *run, sd []uint64) (*serveState, error) {
	clean, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: r.size(serveTrainRecords, 2000), Seed: sd[0], Workers: r.workers})
	if err != nil {
		return nil, err
	}
	models, err := ppdm.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		return nil, err
	}
	perturbed, err := ppdm.PerturbTableWorkers(clean, models, sd[1], r.workers)
	if err != nil {
		return nil, err
	}
	clf, err := ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models, Workers: r.workers})
	if err != nil {
		return nil, err
	}
	var doc bytes.Buffer
	if err := clf.Save(&doc); err != nil {
		return nil, err
	}
	path := filepath.Join(r.dir, "model.json")
	if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
		return nil, err
	}
	local, err := ppdm.LoadClassifier(bytes.NewReader(doc.Bytes()))
	if err != nil {
		return nil, err
	}
	pool, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: r.size(queryPool, 2000), Seed: sd[2], Workers: r.workers})
	if err != nil {
		return nil, err
	}
	var bulk bytes.Buffer
	w, err := ppdm.NewStreamWriter(&bulk, pool.Schema())
	if err != nil {
		return nil, err
	}
	if _, err := ppdm.CopyStream(w, ppdm.StreamTable(pool, 0)); err != nil {
		return nil, err
	}
	if err := w.Close(); err != nil {
		return nil, err
	}

	srv, err := serve.New(serve.Config{ModelPath: path, Workers: r.workers})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	host := ln.Addr().String()
	st := &serveState{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		host:   host,
		local:  local,
		pool:   pool,
		bulk:   renderRequest(host, "application/octet-stream", bulk.Bytes()),
		seeds:  sd,
	}
	for c := 0; c < conns; c++ {
		st.conns = append(st.conns, &httpConn{addr: host})
	}
	go func() {
		defer close(st.served)
		st.hs.Serve(ln)
	}()

	if err := st.checkProbe(r); err != nil {
		st.stop()
		return nil, err
	}
	if err := st.fillCache(); err != nil {
		st.stop()
		return nil, err
	}
	return st, nil
}

// stop closes the connections, shuts the server down and waits for it;
// safe to call twice.
func (st *serveState) stop() {
	for _, c := range st.conns {
		c.close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	st.hs.Shutdown(ctx)
	<-st.served
	st.srv.Close()
}

// fillCache sends zipf-drawn groups of records, closed-loop on both
// connections, until twice the cache capacity of records went through.
func (st *serveState) fillCache() error {
	reqs := st.requests(2*serve.DefaultCacheSize/groupSize, groupSize, st.seeds[7])
	var wg sync.WaitGroup
	errs := make([]error, len(st.conns))
	for c, conn := range st.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := c; i < len(reqs) && errs[c] == nil; i += len(st.conns) {
				_, errs[c] = conn.post(reqs[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("warming the cache: %w", err)
		}
	}
	return nil
}

// checkProbe classifies the first probeRecords pool records through
// /classify, groupSize records a request, and compares every answer with
// the local copy of the served model.
func (st *serveState) checkProbe(r *run) error {
	n := min(probeRecords, st.pool.N())
	records := make([][]float64, n)
	for i := range records {
		records[i] = st.pool.Row(i)
	}
	want, err := st.local.ClassifyBatch(records, r.workers)
	if err != nil {
		return err
	}
	var got []int
	for lo := 0; lo < n; lo += groupSize {
		req := renderRequest(st.host, "application/json", appendRecords(nil, records[lo:min(lo+groupSize, n)]))
		body, err := st.conns[0].post(req)
		if err != nil {
			return fmt.Errorf("probe set: %w", err)
		}
		var resp struct {
			ClassIndices []int `json:"class_indices"`
		}
		if err := json.Unmarshal(body, &resp); err != nil {
			return fmt.Errorf("probe set: %w", err)
		}
		got = append(got, resp.ClassIndices...)
	}
	same := len(got) == len(want)
	for i := 0; same && i < len(want); i++ {
		same = got[i] == want[i]
	}
	r.check(same, "/classify answers for the probe set differ from ClassifyBatch on the saved model")
	return nil
}

// requests renders n /classify requests of records drawn zipf(zipfS) over
// the pool. Each carries size records; with size 0, a share of groupShare
// carry groupSize records and the rest one.
func (st *serveState) requests(n, size int, seed uint64) [][]byte {
	rng := rand.New(ppdm.NewRand(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(st.pool.N()-1))
	out := make([][]byte, n)
	var recs [][]float64
	for i := range out {
		k := size
		if k == 0 {
			k = 1
			if rng.Float64() < groupShare {
				k = groupSize
			}
		}
		recs = recs[:0]
		for j := 0; j < k; j++ {
			recs = append(recs, st.pool.Row(int(zipf.Uint64())))
		}
		out[i] = renderRequest(st.host, "application/json", appendRecords(nil, recs))
	}
	return out
}

// appendRecords renders a /classify JSON body: {"record": …} for one
// record, {"records": […]} for several.
func appendRecords(b []byte, recs [][]float64) []byte {
	row := func(b []byte, rec []float64) []byte {
		b = append(b, '[')
		for j, v := range rec {
			if j > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendFloat(b, v, 'g', -1, 64)
		}
		return append(b, ']')
	}
	if len(recs) == 1 {
		return append(row(append(b, `{"record":`...), recs[0]), '}')
	}
	b = append(b, `{"records":[`...)
	for i, rec := range recs {
		if i > 0 {
			b = append(b, ',')
		}
		b = row(b, rec)
	}
	return append(b, "]}"...)
}

// bulkResult is the bulk phase: the whole pool as one gzipped-CSV body,
// posted back to back on one connection.
type bulkResult struct {
	requests, failed int
	seconds          []float64 // duration of each successful request
	correct          int       // correct count of the first answer
	accuracy         float64   // accuracy of the first answer
	consistent       bool      // every answer covered the pool and matched the first
}

// bulkLoop posts the bulk body back to back on one connection, at least
// once and then until the given seconds are spent, and adds the requests to
// res. The server classifies a bulk body on all its workers, so one client
// keeps it busy; each request is timed, so that the rate is a median.
func (st *serveState) bulkLoop(res *bulkResult, seconds float64) {
	type answer struct {
		N        int     `json:"n"`
		Correct  int     `json:"correct"`
		Accuracy float64 `json:"accuracy"`
	}
	start, horizon := time.Now(), time.Duration(seconds*float64(time.Second))
	for once := true; once || time.Since(start) < horizon; once = false {
		t0 := time.Now()
		body, err := st.conns[0].post(st.bulk)
		d := time.Since(t0)
		var a answer
		if err == nil {
			err = json.Unmarshal(body, &a)
		}
		res.requests++
		if err != nil {
			res.failed++
			continue
		}
		if len(res.seconds) == 0 {
			res.correct, res.accuracy = a.Correct, a.Accuracy
		}
		res.seconds = append(res.seconds, d.Seconds())
		res.consistent = res.consistent && a.N == st.pool.N() && a.Correct == res.correct
	}
}

// deltaKeys are the counters of /metrics and /stats whose change over a
// phase the per-layer serving metrics derive from.
var deltaKeys = []string{
	"ppdm_serve_batch_records_total",
	"ppdm_serve_batch_queue_rejects_total",
	"ppdm_serve_deadline_rejects_total",
	"ppdm_serve_shed_total",
	`ppdm_serve_http_request_duration_seconds_count{endpoint="classify"}`,
	`ppdm_serve_http_request_duration_seconds_sum{endpoint="classify"}`,
	"ppdm_serve_cache_hits",
	"ppdm_serve_cache_misses",
	"batcher.batches",
	"batcher.records",
}

// tracedPhase runs one round of a phase. On a traced run it scrapes
// /metrics and /stats before and after, records a span for the round with
// the counter deltas, and adds the deltas to the phase's sums.
func (st *serveState) tracedPhase(r *run, name string, phase func() phaseResult) (phaseResult, error) {
	if !r.trace {
		return phase(), nil
	}
	before, err := st.scrape()
	if err != nil {
		return phaseResult{}, err
	}
	sp := r.tr.start("loadgen."+name, 0, 0)
	p := phase()
	r.tr.finish(sp, nil)
	after, err := st.scrape()
	if err != nil {
		return p, err
	}
	if st.deltas == nil {
		st.deltas = map[string]map[string]float64{}
	}
	sums := st.deltas[name]
	if sums == nil {
		sums = map[string]float64{}
		st.deltas[name] = sums
	}
	round := map[string]float64{}
	for _, k := range deltaKeys {
		round[k] = after[k] - before[k]
		sums[k] += round[k]
	}
	sums["largest_flush"] = after["ppdm_serve_batch_largest_records"] // a high-water mark
	r.tr.annotate(sp, round)
	return p, nil
}

// phaseMetrics derives a traced phase's per-layer serving metrics from its
// summed counter deltas and its requests as the client saw them.
func (st *serveState) phaseMetrics(r *run, name string, p phaseResult) {
	d := st.deltas[name]
	m := map[string]float64{
		"records_total":    d["ppdm_serve_batch_records_total"],
		"largest_flush":    d["largest_flush"],
		"queue_rejects":    d["ppdm_serve_batch_queue_rejects_total"],
		"deadline_rejects": d["ppdm_serve_deadline_rejects_total"],
		"shed":             d["ppdm_serve_shed_total"],
		"flushes":          d["batcher.batches"],
	}
	if c := d[`ppdm_serve_http_request_duration_seconds_count{endpoint="classify"}`]; c > 0 {
		m["handler_mean_ms"] = d[`ppdm_serve_http_request_duration_seconds_sum{endpoint="classify"}`] / c * 1000
	}
	if p.successes > 0 && m["handler_mean_ms"] > 0 {
		clientMean := ms(p.outsideSum) / float64(p.successes)
		m["outside_handler_share"] = 1 - m["handler_mean_ms"]/clientMean
	}
	if look := d["ppdm_serve_cache_hits"] + d["ppdm_serve_cache_misses"]; look > 0 {
		m["cache_hit_ratio"] = d["ppdm_serve_cache_hits"] / look
	}
	if f := m["flushes"]; f > 0 {
		m["records_per_flush"] = d["batcher.records"] / f
	}
	for k, v := range m {
		r.metrics["serve."+k+"_"+name] = v
	}
}

// scrape reads the server's /metrics exposition and the batcher counters
// of /stats into one map, on a connection of its own outside the
// generator's.
func (st *serveState) scrape() (map[string]float64, error) {
	client := &http.Client{Timeout: clientTimeout}
	defer client.CloseIdleConnections()
	out := map[string]float64{}
	resp, err := client.Get("http://" + st.host + "/metrics")
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				out[line[:i]] = v
			}
		}
	}
	resp.Body.Close()
	if err := sc.Err(); err != nil {
		return nil, err
	}

	resp, err = client.Get("http://" + st.host + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var stats struct {
		Batcher serve.Stats `json:"batcher"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, err
	}
	out["batcher.batches"] = float64(stats.Batcher.Batches)
	out["batcher.records"] = float64(stats.Batcher.Records)
	return out, nil
}
