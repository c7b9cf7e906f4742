package assoc

import "math/bits"

// --- word kernels ---
//
// The two popcount kernels are 4-wide unrolls: they stream their operand
// slices with the slice-advance idiom (the re-slice after the unrolled loop
// keeps the compiler's bounds-check elimination happy, as in
// internal/reconstruct's band kernels) and four independent accumulators so
// the popcounts pipeline.

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

// andInto writes a AND b into dst. dst may alias a. len(b) and len(dst)
// must be >= len(a).
func andInto(dst, a, b []uint64) {
	dst, b = dst[:len(a)], b[:len(a)]
	for i, v := range a {
		dst[i] = v & b[i]
	}
}

// andBlock is the word length of countRun's stack buffer: 2 KiB, small
// enough to stay in L1 while a run's last columns stream past it.
const andBlock = 256

// countRun sets counts[j] to the number of transactions that hold every
// item of run[j], for a run of non-empty candidates that share their first
// k−1 items (len(counts) == len(run)). It is the package's one counting
// engine: the miners count each level's runs through it, and Support and
// PatternCounts count one set at a time as a run of one. It writes neither
// the columns nor the heap.
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
