package ppdm_test

// Serial vs micro-batched throughput pairs for the inference daemon
// (internal/serve). The serial baseline answers one single-record request
// at a time with micro-batching disabled (MaxBatch 1: every request is its
// own flush); the micro-batched variant serves the same single-record
// requests from concurrent clients, coalesced by the bounded-queue
// dispatcher into multi-record flushes on the worker engine. The cached
// variant additionally lets a small working set hit the per-snapshot LRU.
// Recorded numbers live in BENCH_serve.json.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"ppdm"
	"ppdm/internal/serve"
)

// serveBenchRecords is how many distinct query records the benchmarks cycle
// through (large enough that the uncached benchmarks cannot hit the LRU).
const serveBenchRecords = 20000

// newBenchServer trains a ByClass tree on perturbed data, saves it, and
// boots an HTTP test server over it with the given serve config.
func newBenchServer(b *testing.B, cfg serve.Config) (*httptest.Server, [][]float64) {
	b.Helper()
	models, err := ppdm.ModelsForAllAttrs(ppdm.BenchmarkSchema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	table, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: 10000, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(table, models, 2)
	if err != nil {
		b.Fatal(err)
	}
	clf, err := ppdm.Train(perturbed, ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models})
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "model.json")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := clf.Save(f); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	cfg.ModelPath = path
	s, err := serve.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(func() { ts.Close(); s.Close() })

	queries, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: serveBenchRecords, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	records := make([][]float64, queries.N())
	for i := range records {
		records[i] = queries.Row(i)
	}
	return ts, records
}

// classifyOnce posts one single-record /classify request.
func classifyOnce(b *testing.B, client *http.Client, url string, rec []float64) {
	classifyGroup(b, client, url, [][]float64{rec})
}

// classifyGroup posts one /classify request carrying a group of records.
func classifyGroup(b *testing.B, client *http.Client, url string, recs [][]float64) {
	body, err := json.Marshal(map[string]any{"records": recs})
	if err != nil {
		b.Fatal(err)
	}
	resp, err := client.Post(url+"/classify", "application/json", bytes.NewReader(body))
	if err != nil {
		b.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("classify: status %d", resp.StatusCode)
	}
	var out struct {
		N int `json:"n"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		b.Fatal(err)
	}
	resp.Body.Close()
	if out.N != len(recs) {
		b.Fatalf("classify: n = %d, want %d", out.N, len(recs))
	}
}

// benchClient reuses connections across the whole benchmark.
func benchClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 64
	t.MaxIdleConnsPerHost = 64
	return &http.Client{Transport: t, Timeout: 30 * time.Second}
}

// BenchmarkServeSerialSingle is the baseline: one client, one in-flight
// single-record request at a time, micro-batching off (every request
// flushes alone). 1/ns_per_op is the serial requests-per-second ceiling.
func BenchmarkServeSerialSingle(b *testing.B) {
	ts, records := newBenchServer(b, serve.Config{MaxBatch: 1, CacheSize: -1})
	client := benchClient()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		classifyOnce(b, client, ts.URL, records[i%len(records)])
	}
}

// BenchmarkServeMicroBatched serves the identical single-record requests
// from concurrent clients through the micro-batcher; the dispatcher
// coalesces whatever queued during the previous flush into multi-record
// flushes at Workers = all cores. Distinct records defeat the cache, so
// the speedup over SerialSingle is pure request overlap + coalescing.
func BenchmarkServeMicroBatched(b *testing.B) {
	ts, records := newBenchServer(b, serve.Config{
		MaxBatch:   64,
		QueueDepth: 1024,
		CacheSize:  -1,
	})
	client := benchClient()
	var next atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) - 1
			classifyOnce(b, client, ts.URL, records[i%len(records)])
		}
	})
}

// BenchmarkServeMicroBatchedGroups is the throughput configuration: the
// same concurrent clients bundle 8 records per request (one op = 8
// records; compare ns_per_op/8 against BenchmarkServeSerialSingle for the
// per-record speedup) and the micro-batcher coalesces the groups into
// larger ClassifyBatch flushes. HTTP and dispatch overhead amortize across
// each group, which is where batched serving beats the
// one-record-per-round-trip baseline even on a single core.
func BenchmarkServeMicroBatchedGroups(b *testing.B) {
	ts, records := newBenchServer(b, serve.Config{
		MaxBatch:   64,
		QueueDepth: 1024,
		CacheSize:  -1,
	})
	client := benchClient()
	const groupSize = 8
	var next atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) - 1
			lo := (i * groupSize) % (len(records) - groupSize)
			classifyGroup(b, client, ts.URL, records[lo:lo+groupSize])
		}
	})
	b.ReportMetric(groupSize, "records/op")
}

// BenchmarkServeMicroBatchedCached is BenchmarkServeMicroBatched with the
// prediction cache on and a small working set (64 distinct records), the
// regime a production hot path with repeated queries sits in: most
// requests are answered from the LRU without touching the tree.
func BenchmarkServeMicroBatchedCached(b *testing.B) {
	ts, records := newBenchServer(b, serve.Config{
		MaxBatch:   64,
		QueueDepth: 1024,
	})
	client := benchClient()
	var next atomic.Int64
	b.SetParallelism(16)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			i := int(next.Add(1)) - 1
			classifyOnce(b, client, ts.URL, records[i%64])
		}
	})
}

// BenchmarkServeStreamBody posts the whole query set as one gzipped CSV
// body (the ppdm-gen -stream interchange format) per iteration — the bulk
// path that bypasses the micro-batcher and classifies batch-by-batch.
func BenchmarkServeStreamBody(b *testing.B) {
	ts, _ := newBenchServer(b, serve.Config{CacheSize: -1})
	table, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: serveBenchRecords, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	var gz bytes.Buffer
	w, err := ppdm.NewStreamWriter(&gz, table.Schema())
	if err != nil {
		b.Fatal(err)
	}
	if _, err := ppdm.CopyStream(w, ppdm.StreamTable(table, 0)); err != nil {
		b.Fatal(err)
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	client := benchClient()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/classify", "application/gzip", bytes.NewReader(gz.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		var out struct {
			N int `json:"n"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			b.Fatal(err)
		}
		resp.Body.Close()
		if out.N != serveBenchRecords {
			b.Fatalf("stream classify: n = %d, want %d", out.N, serveBenchRecords)
		}
	}
	b.ReportMetric(float64(serveBenchRecords), "records/op")
}
