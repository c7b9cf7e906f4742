package assoc

import (
	"errors"
	"fmt"
)

// Dataset is a collection of boolean transactions over a fixed item
// universe, stored as one TID-bitmap column per item: bit t of column i is
// set iff transaction t contains item i, so
//
//	support(S) = popcount(AND of the columns of S) / N
//
// — a k-itemset costs one k-way column intersection. AddBatch ORs new rows
// into the columns in place, so they always cover every transaction and
// are never rebuilt. All methods except Add/AddBatch are safe for
// concurrent use.
type Dataset struct {
	numItems int
	n        int
	cols     [][]uint64 // cols[i] holds (n+63)/64 words; bits past n are zero
}

// NewDataset returns an empty dataset over items 0..numItems-1.
func NewDataset(numItems int) (*Dataset, error) {
	if numItems <= 0 {
		return nil, fmt.Errorf("assoc: need a positive item count, got %d", numItems)
	}
	return &Dataset{numItems: numItems, cols: make([][]uint64, numItems)}, nil
}

// NumItems returns the size of the item universe.
func (d *Dataset) NumItems() int { return d.numItems }

// N returns the number of transactions.
func (d *Dataset) N() int { return d.n }

// words returns the length of every item column.
func (d *Dataset) words() int { return (d.n + 63) / 64 }

// Add appends one transaction given as a list of item IDs. Duplicate items
// are allowed and collapse; out-of-range items are an error.
func (d *Dataset) Add(items []int) error {
	return d.AddBatch([][]int{items})
}

// AddBatch appends a batch of transactions at once — the ingestion path of
// the streamed transaction-file readers. The columns grow in place by the
// words the batch needs and each row's bits are ORed into them, so the
// growth cost spreads over the appends. On error the dataset is left
// unchanged.
func (d *Dataset) AddBatch(txs [][]int) error {
	for _, items := range txs {
		if err := d.checkItems(items); err != nil {
			return err
		}
	}
	first, old := d.n, d.words()
	d.n += len(txs)
	if grow := d.words() - old; grow > 0 {
		for it, col := range d.cols {
			d.cols[it] = append(col, make([]uint64, grow)...)
		}
	}
	for i, items := range txs {
		t := first + i
		w, bit := t/64, uint64(1)<<(uint(t)%64)
		for _, it := range items {
			d.cols[it][w] |= bit
		}
	}
	return nil
}

// Index does nothing. The item columns are the dataset's only storage and
// AddBatch keeps them current, so there is no index left to build. The
// method remains because the repository benchmark's mine workload
// (benchmark/mine.go) calls it, and that workload's code stays unchanged so
// that its runs compare across versions.
func (d *Dataset) Index(workers int) {}

// Contains reports whether transaction i contains the item.
func (d *Dataset) Contains(i, item int) bool {
	return d.cols[item][i/64]&(1<<(uint(i)%64)) != 0
}

// ContainsAll reports whether transaction i contains every item of the set.
func (d *Dataset) ContainsAll(i int, items []int) bool {
	for _, it := range items {
		if !d.Contains(i, it) {
			return false
		}
	}
	return true
}

// Size returns the number of items in transaction i.
func (d *Dataset) Size(i int) int {
	total := 0
	for it := range d.cols {
		if d.Contains(i, it) {
			total++
		}
	}
	return total
}

// checkItems validates an item list against the universe.
func (d *Dataset) checkItems(items []int) error {
	for _, it := range items {
		if it < 0 || it >= d.numItems {
			return fmt.Errorf("assoc: item %d outside universe [0,%d)", it, d.numItems)
		}
	}
	return nil
}

// Support returns the exact fraction of transactions containing every item
// of the set, counting on all available cores; use SupportWorkers to bound
// the parallelism.
func (d *Dataset) Support(items []int) (float64, error) {
	return d.SupportWorkers(items, 0)
}

// SupportWorkers is Support with an explicit worker count (0 = all cores):
// the popcount of the intersection of the item columns, divided by N. Long
// columns are counted in ColChunk-word shards whose integer counts fold in
// index order, so the result is identical for every worker count.
func (d *Dataset) SupportWorkers(items []int, workers int) (float64, error) {
	if d.n == 0 {
		return 0, errors.New("assoc: empty dataset")
	}
	if err := d.checkItems(items); err != nil {
		return 0, err
	}
	n := float64(d.n)
	switch len(items) {
	case 0:
		return 1, nil
	case 1:
		return float64(popcountWorkers(d.cols[items[0]], workers)) / n, nil
	case 2:
		return float64(andPopcountWorkers(d.cols[items[0]], d.cols[items[1]], workers)) / n, nil
	}
	scratch := make([]uint64, d.words())
	andIntoWorkers(scratch, d.cols[items[0]], d.cols[items[1]], workers)
	for _, it := range items[2 : len(items)-1] {
		andIntoWorkers(scratch, scratch, d.cols[it], workers)
	}
	return float64(andPopcountWorkers(scratch, d.cols[items[len(items)-1]], workers)) / n, nil
}

// PatternCounts returns, for the given (small) item list, the observed
// frequency of every presence/absence pattern across all transactions:
// counts[mask] is the number of transactions t where item items[b] ∈ t
// exactly for the bits b set in mask. len(items) is limited to 20 to bound
// the 2^k table. Counting runs on all available cores; use
// PatternCountsWorkers to bound the parallelism.
func (d *Dataset) PatternCounts(items []int) ([]int, error) {
	return d.PatternCountsWorkers(items, 0)
}

// PatternCountsWorkers is PatternCounts with an explicit worker count
// (0 = all cores). A masked-subset DFS first collects allSup[m] =
// #transactions containing every item of submask m (each include edge is
// one column AND, reused by the whole subtree below it), then mobius turns
// the "contains at least" counts into exact-pattern counts. Everything is
// integer arithmetic, so the table — and any estimate derived from it — is
// identical at every worker count. It serves EstimateSupport, which counts
// one itemset with no earlier counts to reuse; FrequentFromRandomized
// builds its tables from the counts of earlier levels instead.
//
// The DFS visits all 2^k subsets, so its cost grows as 2^k column ANDs; a
// row scan costs k bit tests per row instead. On 100k randomized rows at
// one worker the DFS beats a row scan up to k=10 (3.0 ms against 5.9 ms)
// and loses from k=11 on (266 ms against 10.8 ms at k=16). Every
// EstimateSupport caller estimates itemsets of at most 4 items, so one
// algorithm serves all k.
func (d *Dataset) PatternCountsWorkers(items []int, workers int) ([]int, error) {
	k := len(items)
	if k == 0 || k > 20 {
		return nil, fmt.Errorf("assoc: pattern counting needs 1..20 items, got %d", k)
	}
	if err := d.checkItems(items); err != nil {
		return nil, err
	}
	words := d.words()
	all := make([]int, 1<<uint(k))
	scratch := make([]uint64, k*words)
	// rec decides items[i:]: the "exclude" child inherits the current
	// intersection, the "include" child ANDs in items[i]'s column (into the
	// depth-i scratch slab; parents only ever hold shallower slabs or raw
	// columns, so slabs are safely reused across siblings).
	var rec func(i, mask int, cur []uint64, cnt int)
	rec = func(i, mask int, cur []uint64, cnt int) {
		if i == k {
			all[mask] = cnt
			return
		}
		rec(i+1, mask, cur, cnt)
		col := d.cols[items[i]]
		if cur == nil {
			rec(i+1, mask|1<<uint(i), col, popcountWorkers(col, workers))
			return
		}
		buf := scratch[i*words : (i+1)*words]
		rec(i+1, mask|1<<uint(i), buf, andIntoWorkers(buf, cur, col, workers))
	}
	rec(0, 0, nil, d.n)
	mobius(all, k)
	return all, nil
}

// mobius turns a table of contains-all counts over k items, all[m] =
// #transactions holding every item of submask m, into exact-pattern counts
// in place: all[m] becomes #transactions whose presence pattern over the k
// items is exactly m. It is the superset inclusion–exclusion (Möbius) pass,
// one bit axis at a time, in exact integer arithmetic.
func mobius(all []int, k int) {
	for b := 0; b < k; b++ {
		bit := 1 << uint(b)
		for m := range all {
			if m&bit == 0 {
				all[m] -= all[m|bit]
			}
		}
	}
}
