// Package serve is the online inference subsystem: an HTTP/JSON daemon that
// answers classification queries from a saved privacy-preserving model
// without ever touching the training data.
//
// The SIGMOD 2000 paper (Agrawal & Srikant, "Privacy-Preserving Data
// Mining") ends where a classifier has been induced over reconstructed
// distributions; this package is the deployment half the paper implies. Its
// privacy boundary follows the paper's collection model at query time:
// clients may submit already-perturbed records (randomized at the source,
// paper §2) and the server classifies them as-is — reconstruction-based
// models are trained against exactly that input distribution — so the
// server never needs cleartext. For clients that do trust the collector,
// the /perturb endpoint applies a named noise model server-side, making the
// daemon a drop-in randomization proxy.
//
// Endpoints:
//
//   - POST /classify — classify records. The body is either JSON
//     ({"record": [...]} or {"records": [[...], ...]}) or a gzipped CSV
//     record stream exactly as written by `ppdm-gen -stream` (detected by
//     the gzip magic bytes, classified batch-by-batch in bounded memory).
//   - POST /perturb — apply a noise family/privacy level to the submitted
//     records, deterministically in the request seed (paper §2).
//   - POST /reload — re-read the model file and atomically swap it in.
//   - GET /healthz — liveness plus a summary of the loaded model.
//   - GET /stats — model generation, reload count, micro-batcher and
//     prediction-cache statistics.
//   - GET /metrics — Prometheus text exposition: per-endpoint request
//     counters, latency histograms and in-flight gauges, plus batcher,
//     cache and chain gauges.
//
// Architecture of the hot path: concurrent /classify requests are coalesced
// by a micro-batcher (bounded queue; each flush takes the first queued
// group plus whatever else is already queued, up to a record cap) and
// dispatched as one batch onto the internal/parallel worker engine via
// ClassifyBatch, fronted by a bounded per-model LRU cache keyed by the
// discretized record. The model lives behind an atomic.Pointer: hot reload
// (SIGHUP or /reload) swaps the pointer, every micro-batch runs entirely
// against the snapshot it loaded first, and in-flight requests finish on
// the old model. See docs/ARCHITECTURE.md for the request-lifecycle
// diagram.
package serve
