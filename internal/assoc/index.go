package assoc

import (
	"math/bits"

	"ppdm/internal/parallel"
)

// ColChunk is the fixed word-chunk length of the parallel bitmap kernels:
// columns longer than one chunk are AND-ed and popcounted as a stream of
// ColChunk-word shards on the internal/parallel pool, with the per-shard
// integer counts folded in index order. One chunk covers 64*ColChunk
// transactions, so short columns never pay goroutine overhead.
const ColChunk = 2048

// --- 4-wide unrolled word kernels ---
//
// Each kernel streams its operand slices with the slice-advance idiom (the
// re-slice after the unrolled loop keeps the compiler's bounds-check
// elimination happy, as in internal/reconstruct's band kernels) and four
// independent accumulators so the popcounts pipeline.

// popcountWords counts the set bits of one word slice.
func popcountWords(w []uint64) int {
	var c0, c1, c2, c3 int
	for len(w) >= 4 {
		c0 += bits.OnesCount64(w[0])
		c1 += bits.OnesCount64(w[1])
		c2 += bits.OnesCount64(w[2])
		c3 += bits.OnesCount64(w[3])
		w = w[4:]
	}
	c := c0 + c1 + c2 + c3
	for _, v := range w {
		c += bits.OnesCount64(v)
	}
	return c
}

// andPopcount counts the set bits of a AND b without materializing the
// intersection. len(b) must be >= len(a).
func andPopcount(a, b []uint64) int {
	b = b[:len(a)]
	var c0, c1, c2, c3 int
	for len(a) >= 4 {
		c0 += bits.OnesCount64(a[0] & b[0])
		c1 += bits.OnesCount64(a[1] & b[1])
		c2 += bits.OnesCount64(a[2] & b[2])
		c3 += bits.OnesCount64(a[3] & b[3])
		a, b = a[4:], b[4:]
	}
	c := c0 + c1 + c2 + c3
	for i, v := range a {
		c += bits.OnesCount64(v & b[i])
	}
	return c
}

// andInto writes a AND b into dst and returns the intersection's popcount.
// dst may alias a. len(b) and len(dst) must be >= len(a).
func andInto(dst, a, b []uint64) int {
	dst = dst[:len(a)]
	b = b[:len(a)]
	var c0, c1, c2, c3 int
	for len(a) >= 4 {
		w0 := a[0] & b[0]
		w1 := a[1] & b[1]
		w2 := a[2] & b[2]
		w3 := a[3] & b[3]
		dst[0], dst[1], dst[2], dst[3] = w0, w1, w2, w3
		c0 += bits.OnesCount64(w0)
		c1 += bits.OnesCount64(w1)
		c2 += bits.OnesCount64(w2)
		c3 += bits.OnesCount64(w3)
		dst, a, b = dst[4:], a[4:], b[4:]
	}
	c := c0 + c1 + c2 + c3
	for i, v := range a {
		w := v & b[i]
		dst[i] = w
		c += bits.OnesCount64(w)
	}
	return c
}

// andBlock is the word length of countRun's stack buffer: 2 KiB, small
// enough to stay in L1 while a run's last columns stream past it.
const andBlock = 256

// countRun sets counts[j] to the number of transactions that hold every
// item of run[j], for a run of candidates that share their first k−1 items
// (len(counts) == len(run)). It writes neither the columns nor the heap.
// From k = 3 on, block by block, the shared prefix's columns are ANDed once
// into a stack buffer, and each candidate then costs one AND+popcount of
// its last column against that buffer. A prefix of one column has nothing
// to AND, so a pair costs one AND+popcount of its two columns, and a single
// item one popcount.
func (d *Dataset) countRun(run [][]int, counts []int) {
	prefix := run[0][:len(run[0])-1]
	switch len(prefix) {
	case 0:
		for j, cand := range run {
			counts[j] = popcountWords(d.cols[cand[0]])
		}
		return
	case 1:
		col := d.cols[prefix[0]]
		for j, cand := range run {
			counts[j] = andPopcount(col, d.cols[cand[1]])
		}
		return
	}
	clear(counts)
	var buf [andBlock]uint64
	words := d.words()
	for lo := 0; lo < words; lo += andBlock {
		hi := min(lo+andBlock, words)
		b := buf[:hi-lo]
		andInto(b, d.cols[prefix[0]][lo:hi], d.cols[prefix[1]][lo:hi])
		for _, it := range prefix[2:] {
			andInto(b, b, d.cols[it][lo:hi])
		}
		for j, cand := range run {
			counts[j] += andPopcount(b, d.cols[cand[len(cand)-1]][lo:hi])
		}
	}
}

// --- worker-pool wrappers: word-chunked, index-ordered integer folds ---

// chunkBounds returns chunk c's word range within a length-words column.
func chunkBounds(c, words int) (lo, hi int) {
	lo, hi = c*ColChunk, (c+1)*ColChunk
	if hi > words {
		hi = words
	}
	return lo, hi
}

// popcountWorkers is popcountWords chunked across the worker pool for long
// columns; integer per-chunk counts fold in index order, so the result is
// identical at any worker count.
func popcountWorkers(w []uint64, workers int) int {
	chunks := parallel.NumChunks(len(w), ColChunk)
	if chunks <= 1 || parallel.Workers(workers) == 1 {
		return popcountWords(w)
	}
	c, _ := parallel.MapReduce(chunks, workers, 0,
		func(c int) (int, error) {
			lo, hi := chunkBounds(c, len(w))
			return popcountWords(w[lo:hi]), nil
		},
		func(acc, v int) int { return acc + v })
	return c
}

// andPopcountWorkers is andPopcount chunked across the worker pool.
func andPopcountWorkers(a, b []uint64, workers int) int {
	chunks := parallel.NumChunks(len(a), ColChunk)
	if chunks <= 1 || parallel.Workers(workers) == 1 {
		return andPopcount(a, b)
	}
	c, _ := parallel.MapReduce(chunks, workers, 0,
		func(c int) (int, error) {
			lo, hi := chunkBounds(c, len(a))
			return andPopcount(a[lo:hi], b[lo:hi]), nil
		},
		func(acc, v int) int { return acc + v })
	return c
}

// andIntoWorkers is andInto chunked across the worker pool (chunks write
// disjoint dst ranges, so the intersection bytes are identical too).
func andIntoWorkers(dst, a, b []uint64, workers int) int {
	chunks := parallel.NumChunks(len(a), ColChunk)
	if chunks <= 1 || parallel.Workers(workers) == 1 {
		return andInto(dst, a, b)
	}
	c, _ := parallel.MapReduce(chunks, workers, 0,
		func(c int) (int, error) {
			lo, hi := chunkBounds(c, len(a))
			return andInto(dst[lo:hi], a[lo:hi], b[lo:hi]), nil
		},
		func(acc, v int) int { return acc + v })
	return c
}
