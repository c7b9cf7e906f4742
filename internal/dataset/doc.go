// Package dataset implements the tabular-data substrate used by the
// reproduction: typed schemas, in-memory record tables and class labels. It
// corresponds to the data model the SIGMOD 2000 paper assumes throughout —
// fixed-schema records of sensitive numeric attributes plus a class label
// (§1, §5.1) — and carries no algorithmic logic of its own.
//
// A record is a fixed-length []float64 plus an integer class label.
// Categorical attributes are stored as float64-encoded small integers; their
// schema entry records the cardinality so downstream code (perturbation,
// discretization, tree induction) can treat them correctly. Attribute
// domains record a Step granularity so partition-based algorithms never
// split finer than the data's natural resolution.
//
// Tables materialize every record in memory; for tables larger than memory
// the same records can flow through the pipeline as batches via
// internal/stream, which shares this package's schema and holds the one CSV
// codec (a table is read with stream.NewCSVReader and stream.Collect, and
// written with stream.NewCSVWriter and stream.FromTable).
package dataset
