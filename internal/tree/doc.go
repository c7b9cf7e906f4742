// Package tree implements the decision-tree substrate of the reproduction: a
// gini-index classifier over interval-valued (discretized) attributes, with
// binary splits on interval boundaries, depth/size stopping rules, and
// optional pessimistic pruning — the SPRINT-lineage learner of Agrawal &
// Srikant's "Privacy-Preserving Data Mining" (SIGMOD 2000, §4/§5).
//
// # Data access: attribute lists, not rows
//
// Training data reaches the grower in the SPRINT-style columnar layout
// (Shafer, Agrawal & Mehta, VLDB 1996 — the scalable classifier the paper's
// learner descends from): one attribute list per column, holding every
// record's interval index in global row order, stored in fixed-size segments
// of SegLen values (AttrList). A node of the growing tree is just a sorted
// list of rowIDs; split search accumulates per-class interval histograms by
// walking each attribute's segments over those rowIDs, and a chosen split
// partitions the node by marking the winning attribute's left-going rows in
// a rowID bitmap and joining the row list against it. Because every
// attribute list shares the same global row order, that single bitmap join
// replaces SPRINT's per-attribute rid hash tables, and no per-node value
// extraction or column copying happens at all.
//
// Attribute lists are storage-agnostic: MemAttrList serves a memory-resident
// column, while SpillSource serves columns from binary on-disk segment
// files (written by internal/stream's segment codec) through a bounded
// cache, so out-of-core training holds only the class list, the live rowID
// lists, and a fixed budget of decoded segments — never the table.
//
// # The Source contract and the paper's Local mode
//
// There is one engine. Every Source is columnar: it hands the grower its
// attribute lists and class list, and StaticSource and SpillSource are the
// two storage layouts. The paper's Local mode is a StaticSource plus the
// optional DistribSource refinement: at every node it re-derives the
// interval distribution of each candidate attribute by running distribution
// reconstruction over just that node's perturbed values, exactly as §4 of
// the paper prescribes, while the StaticSource's root ByClass assignment
// routes records and supplies the counts of every node the refinement
// declines. Local therefore grows through the same split search and the
// same bitmap partitioning as every other mode.
//
// # Parallelism and determinism
//
// Growth is parallel on two axes sharing one Config.Workers budget: within
// a node, candidate attributes are searched concurrently and their winners
// reduced in ascending attribute order (reproducing the serial scan's
// tie-breaking), and across the tree, left/right subtrees above the
// Config.SubtreeMinRows cutoff grow as independent fork-join tasks on
// internal/parallel (the per-node fan-out shrinks as subtree tasks occupy
// workers, so the axes compose instead of multiplying). Grown trees are
// bit-identical for every worker count: subtrees are data-independent, and
// Importance — the only cross-subtree accumulation — is folded by a
// deterministic pre-order walk after growth, reproducing the serial
// recursion's floating-point addition order exactly.
package tree
