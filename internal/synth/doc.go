// Package synth reimplements the synthetic classification benchmark of
// Agrawal, Imielinski & Swami ("Database Mining: A Performance Perspective",
// IEEE TKDE 1993) that the SIGMOD 2000 privacy paper uses for its entire
// evaluation (§5.1): nine person-record attributes with published
// distributions and a family of deterministic classification functions
// assigning each record to Group A or Group B.
//
// Functions F1–F5 are the ones used in the privacy paper's experiments (its
// "classification functions" figure); F6–F10 are the remaining functions
// from the original generator, provided as extensions.
//
// All nine attributes are modeled as numeric (the integer-valued ones —
// elevel, car, zipcode, hyears — are ordinal), matching the paper's
// treatment where every attribute is independently perturbed with additive
// noise.
//
// Stream yields the records as a bounded-memory record stream (see
// internal/stream), and Generate materializes the whole table as the
// stream's single batch. Generation decomposes the work into GenChunk-sized
// chunks with per-chunk PRNG substreams, so output depends only on
// (Function, N, Seed, LabelNoise) — never on the worker count or batch
// size.
//
// Plateau, Triangles and Bimodal draw the one-dimensional sample shapes of
// the paper's §3.2 reconstruction figures on [0, 100]; ppdm-eval's
// reconstruct scenarios and ppdm-reconstruct sample from them.
package synth
