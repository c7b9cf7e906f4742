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
// growth cost spreads over the appends. The batch is read once: each item
// is checked as its bit is set, and on an out-of-range item the rows set so
// far are taken back, so on error the dataset is left unchanged.
func (d *Dataset) AddBatch(txs [][]int) error {
	first, old := d.n, d.words()
	if grow := (first+len(txs)+63)/64 - old; grow > 0 {
		for it, col := range d.cols {
			d.cols[it] = append(col, make([]uint64, grow)...)
		}
	}
	for i, items := range txs {
		t := first + i
		w, bit := t/64, uint64(1)<<(uint(t)%64)
		for _, it := range items {
			if uint(it) >= uint(d.numItems) {
				d.truncate(first, old)
				return fmt.Errorf("assoc: item %d outside universe [0,%d)", it, d.numItems)
			}
			d.cols[it][w] |= bit
		}
	}
	d.n = first + len(txs)
	return nil
}

// truncate takes back a failed AddBatch that began at row first, when
// every column held old words: it cuts the columns back to old words and
// clears the bits of rows first onwards in the last of them.
func (d *Dataset) truncate(first, old int) {
	for it, col := range d.cols {
		col = col[:old]
		if r := uint(first) % 64; r != 0 {
			col[old-1] &= 1<<r - 1
		}
		d.cols[it] = col
	}
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
// of the set: its count divided by N, so the empty set has support 1.
func (d *Dataset) Support(items []int) (float64, error) {
	if d.n == 0 {
		return 0, errors.New("assoc: empty dataset")
	}
	if err := d.checkItems(items); err != nil {
		return 0, err
	}
	return float64(d.count(items)) / float64(d.n), nil
}

// PatternCounts returns, for the given (small) item list, the observed
// frequency of every presence/absence pattern across all transactions:
// counts[mask] is the number of transactions t where item items[b] ∈ t
// exactly for the bits b set in mask. len(items) is limited to 20 to bound
// the 2^k table. The contains-all count of each submask is counted on its
// own, and mobius turns them into exact-pattern counts; everything is
// integer arithmetic. It serves EstimateSupport, which counts one itemset
// with no earlier counts to reuse; FrequentFromRandomized builds its tables
// from the counts of earlier levels instead.
func (d *Dataset) PatternCounts(items []int) ([]int, error) {
	k := len(items)
	if k == 0 || k > 20 {
		return nil, fmt.Errorf("assoc: pattern counting needs 1..20 items, got %d", k)
	}
	if err := d.checkItems(items); err != nil {
		return nil, err
	}
	all := make([]int, 1<<uint(k))
	var sub [20]int
	for m := range all {
		all[m] = d.count(appendSubset(sub[:0], items, m))
	}
	mobius(all, k)
	return all, nil
}

// count returns the number of transactions that hold every item of the
// set, counted by countRun as a run of one candidate. Every transaction
// holds the empty set.
func (d *Dataset) count(items []int) int {
	if len(items) == 0 {
		return d.n
	}
	var c [1]int
	d.countRun([][]int{items}, c[:])
	return c[0]
}

// appendSubset appends the items of submask m — items[b] for every bit b
// set in m — to dst and returns it.
func appendSubset(dst, items []int, m int) []int {
	for b, it := range items {
		if m&(1<<uint(b)) != 0 {
			dst = append(dst, it)
		}
	}
	return dst
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
