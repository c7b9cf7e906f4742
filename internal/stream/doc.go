// Package stream is the chunked record-stream subsystem: it lets tables
// larger than memory flow through the perturb → reconstruct → train pipeline
// as a sequence of fixed-size record batches, while preserving the library's
// determinism contract.
//
// The paper's data-collection model (Agrawal & Srikant, SIGMOD 2000, §1–2)
// is inherently streaming: each provider perturbs its own record at the
// source and the collector never holds the true table. This package realizes
// that model. A Source yields record batches in strict global order; every
// record carries an implicit global index (Batch.Start plus its offset), so
// downstream stages can align their work to fixed chunk grids
// (synth.GenChunk, noise.PerturbChunk) and derive per-chunk PRNG substreams
// with prng.Splitter. Output is therefore a pure function of the seed at any
// worker count and any batch size. The in-memory record stages are these
// streamed stages run over the whole table as one batch — synth.Generate
// takes the one batch of synth.Stream, and noise.PerturbTable and the
// classifiers' Evaluate methods stream the table through FromTable — so
// each stage has one implementation.
//
// The package provides:
//
//   - Batch / Source — the record-batch contract shared by all stages.
//   - FromTable / Collect — adapters between streams and in-memory tables.
//   - Writer / Reader — the one CSV codec for piping record batches through
//     files or stdin/stdout: a header row of attribute names plus "class",
//     then one row per record. NewCSVWriter/NewCSVReader write and read it
//     plain; NewWriter/NewReader add a gzip layer, so `gunzip` of a gzipped
//     stream equals the plain CSV byte for byte.
//
// Peak memory of a streaming pipeline is O(batch × stages), independent of
// the total record count.
package stream
