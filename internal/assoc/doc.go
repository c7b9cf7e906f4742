// Package assoc implements privacy-preserving association-rule mining over
// boolean transaction data — the extension the SIGMOD 2000 paper names as
// future work (§7), realized in the literature by Evfimievski, Srikant,
// Agrawal & Gehrke (KDD 2002) and revisited for randomization channels by
// Mohaisen & Hong.
//
// Each transaction is a set of items. Providers randomize their
// transactions with independent per-item bit flips before sharing them; the
// miner estimates the true support of candidate itemsets by inverting the
// per-item randomization channel, and runs Apriori over the estimated
// supports. Individual transactions stay plausibly deniable while frequent
// itemsets are recovered.
//
// # Storage and counting
//
// A Dataset is stored only as its vertical (Zaki-style, as in Eclat)
// TID-bitmap index: one N-bit column per item, bit t of column i set iff
// transaction t contains item i. AddBatch validates a batch, grows every
// column in place by the words the batch needs, and ORs each row's bits
// into its items' columns, so the columns always cover every row and are
// never transposed or rebuilt. Contains, ContainsAll and Size read a row
// back out of the columns.
//
// All counting runs on the columns. support(S) is the popcount of the AND
// of the columns of S — a handful of 4-wide unrolled word kernels, chunked
// into ColChunk-word shards on the internal/parallel worker pool for the long
// columns of Support and PatternCounts.
//
// Both miners run one level-wise Apriori walk, which keeps the observed
// contains-all count of every frequent itemset. A level's candidates,
// generated with the all-(k-1)-subsets-frequent prune, are counted in runs:
// candidates that share their first k-1 items. From k = 3 on, for each
// 256-word block a run's prefix columns are ANDed once into a stack buffer,
// and each candidate then costs one AND+popcount of its last column against
// that buffer; a pair costs one AND+popcount of its two columns. No count
// writes to the heap, and a level's runs are counted on the worker pool.
// Exact mining divides a count by N, and there the prune only skips
// candidates that would fail their own support test, because exact supports
// are anti-monotone. Channel-inversion estimates are not anti-monotone, so
// for the estimator the prune is load-bearing. It also makes every proper
// subset of a candidate a frequent itemset of an earlier level, so the
// candidate's exact 2^k presence/absence pattern table is its subsets'
// counts and its own through an integer Möbius pass. EstimateSupport, which
// has no earlier counts to reuse, builds the same table with a masked-subset
// DFS over the columns.
//
// A row-by-row scan through Contains survives only in the tests, as the
// oracle that support, pattern counts and both miners are checked against,
// under a reference level-wise walk that counts or estimates every
// candidate from scratch.
//
// # Determinism
//
// Every count is an exact integer divided by N: per-word-chunk partial
// counts fold in index order, so every worker count and chunk size
// produces identical floats bit for bit. MiningConfig.Workers bounds the
// parallelism without ever changing a result.
package assoc
