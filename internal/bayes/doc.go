// Package bayes implements a naïve Bayes classifier over interval
// distributions, demonstrating the claim in §6 of the SIGMOD 2000 paper
// that its randomization scheme is transparent to the downstream learner:
// any classifier that consumes class-conditional attribute distributions
// can train on the reconstructed ones.
//
// Naïve Bayes is in fact an even more natural fit than the decision tree:
// it needs nothing but per-class per-attribute distributions, so the
// ByClass reconstruction output (§4) plugs in directly — no ordered
// re-assignment of individual records is required at all.
//
// That property makes it the natural learner for out-of-core training:
// TrainStream consumes a record stream (internal/stream) in one pass,
// retaining only O(classes × attributes × intervals) sufficient statistics,
// and produces a classifier identical to Train on the materialized table.
// TrainStats.AddBatch bins a batch's reconstructed attributes one task per
// attribute (reconstruct.StreamStats.AddBatch) and its direct cells
// serially, and Finalize builds each (attribute, class) distribution as a
// task of its own, both at GOMAXPROCS workers with no option to set: the
// counts are integers and every cell is finalized on its own, so the model
// is the same bits at any worker count.
package bayes
