package assoc

import (
	"encoding/binary"
	"fmt"
	"sort"

	"ppdm/internal/parallel"
)

// Itemset is a frequent itemset with its (exact or estimated) support.
type Itemset struct {
	Items   []int // sorted ascending
	Support float64
}

// Key returns a compact canonical key for set comparison: the items encoded
// as a uvarint byte sequence (self-delimiting, so distinct item lists always
// produce distinct keys). The key is an opaque map key, not a display
// string — render s.Items for humans.
func (s Itemset) Key() string {
	var arr [80]byte // 16 items of up to 5 varint bytes stay allocation-free
	return string(appendKey(arr[:0], s.Items))
}

// appendKey appends the Key bytes of items to b.
func appendKey(b []byte, items []int) []byte {
	for _, it := range items {
		b = binary.AppendUvarint(b, uint64(it))
	}
	return b
}

// MiningConfig bounds the Apriori search.
type MiningConfig struct {
	// MinSupport is the frequency threshold in (0, 1].
	MinSupport float64
	// MaxSize bounds the itemset size (0 means DefaultMaxSize). Estimation
	// cost grows as 2^size, and the channel inversion's variance grows with
	// size too, so randomized mining keeps this small.
	MaxSize int
	// Workers bounds the support-counting parallelism (0 = all cores).
	// Mined itemsets and supports are identical for every worker count.
	Workers int
}

// DefaultMaxSize is the default itemset-size bound.
const DefaultMaxSize = 4

func (c MiningConfig) withDefaults() (MiningConfig, error) {
	if !(c.MinSupport > 0 && c.MinSupport <= 1) {
		return c, fmt.Errorf("assoc: min support %v must be in (0,1]", c.MinSupport)
	}
	if c.MaxSize == 0 {
		c.MaxSize = DefaultMaxSize
	}
	if c.MaxSize < 1 || c.MaxSize > 16 {
		return c, fmt.Errorf("assoc: max size %d must be in [1,16]", c.MaxSize)
	}
	return c, nil
}

// Frequent mines all frequent itemsets of the clean dataset with exact
// support counting, sorted by size then lexicographically. Mining runs as a
// depth-first walk of prefix equivalence classes that reuses each
// (k−1)-prefix's intersection bitmap, so a k-candidate costs one column AND;
// the result is byte-identical at every worker count.
func Frequent(d *Dataset, cfg MiningConfig) ([]Itemset, error) {
	if d == nil || d.N() == 0 {
		return nil, fmt.Errorf("assoc: empty dataset")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return mineVertical(d, cfg)
}

// FrequentFromRandomized mines frequent itemsets of the *original* data
// given only the randomized dataset: candidate supports are estimated by
// inverting the randomization channel over each candidate's 2^k pattern
// counts. Inverted estimates are NOT anti-monotone (a superset's estimate
// can exceed a subset's), so — unlike exact mining — the full
// all-(k-1)-subsets-frequent prune is load-bearing here, and estimated
// mining walks level by level rather than depth-first (see mineRandomized).
// The pattern counts are exact integers, so estimates — and the mined set —
// are byte-identical at every worker count. A flip probability that
// NewBitFlip rejects is an error.
func FrequentFromRandomized(randomized *Dataset, bf BitFlip, cfg MiningConfig) ([]Itemset, error) {
	if randomized == nil || randomized.N() == 0 {
		return nil, fmt.Errorf("assoc: empty dataset")
	}
	if err := bf.validate(); err != nil {
		return nil, err
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return mineRandomized(randomized, bf, cfg), nil
}

// vMember is one frequent extension of the DFS prefix: the itemset
// prefix∪{item}, its support, and its TID bitmap.
type vMember struct {
	item int
	sup  float64
	bm   []uint64
}

// mineVertical mines the columns with exact supports by depth-first prefix
// equivalence classes: the class of prefix P holds every frequent P∪{x},
// and joining members i<j yields exactly the level-wise prefix-join
// candidates, so the mined set matches Apriori's (subset pruning is
// redundant here — by anti-monotonicity a candidate with an infrequent
// subset fails its own support test, which the bitmap makes cheaper than
// the subset lookups). Each member carries the intersection bitmap of its
// itemset, so a candidate is one cached-prefix AND+popcount.
//
// The anti-monotonicity argument holds only for exact supports; estimated
// mining (FrequentFromRandomized) keeps the level-wise walk and its subset
// pruning.
func mineVertical(d *Dataset, cfg MiningConfig) ([]Itemset, error) {
	workers := cfg.Workers
	n := float64(d.n)
	var all []Itemset

	// Size 1: a column popcount per item.
	var roots []vMember
	for it, col := range d.cols {
		s := float64(popcountWorkers(col, workers)) / n
		if s >= cfg.MinSupport {
			roots = append(roots, vMember{item: it, sup: s, bm: col})
			all = append(all, Itemset{Items: []int{it}, Support: s})
		}
	}

	prefix := make([]int, 0, cfg.MaxSize)
	var spare []uint64 // recycled candidate bitmap; kept only when frequent
	var dfs func(members []vMember, size int)
	dfs = func(members []vMember, size int) {
		if size >= cfg.MaxSize {
			return
		}
		for i := 0; i+1 < len(members); i++ {
			a := members[i]
			prefix = append(prefix, a.item)
			var class []vMember
			for j := i + 1; j < len(members); j++ {
				b := members[j]
				var s float64
				var bm []uint64
				if size+1 < cfg.MaxSize {
					if spare == nil {
						spare = make([]uint64, d.words())
					}
					s = float64(andIntoWorkers(spare, a.bm, b.bm, workers)) / n
					bm = spare
				} else {
					s = float64(andPopcountWorkers(a.bm, b.bm, workers)) / n
				}
				if s >= cfg.MinSupport {
					items := append(append(make([]int, 0, size+1), prefix...), b.item)
					all = append(all, Itemset{Items: items, Support: s})
					class = append(class, vMember{item: b.item, sup: s, bm: bm})
					if bm != nil {
						spare = nil // the class keeps the bitmap
					}
				}
			}
			if len(class) >= 2 {
				dfs(class, size+1)
			}
			prefix = prefix[:len(prefix)-1]
		}
	}
	dfs(roots, 1)
	sortItemsets(all)
	return all, nil
}

// mineRandomized is the level-wise walk behind FrequentFromRandomized. It
// keeps each frequent itemset's observed contains-all count — how many
// randomized transactions hold all of its items — keyed by Key. Apriori's
// prune admits a size-k candidate only when every (k-1)-subset is frequent,
// so by induction every non-empty proper subset of a candidate was a
// frequent candidate of an earlier level, and the empty set is contained in
// every transaction. A candidate's 2^k contains-all table therefore needs
// one new count, its own: one read-only AND+popcount of its k columns. The
// Möbius pass then turns the table into the exact-pattern counts that
// estimateFromCounts inverts. A level's candidates are counted and
// estimated on the worker pool into index-addressed slots, so the result is
// the same at every worker count.
func mineRandomized(d *Dataset, bf BitFlip, cfg MiningConfig) []Itemset {
	observed := make(map[string]int)
	singles := make([]int, d.numItems)
	cands := make([][]int, d.numItems)
	for it := range singles {
		singles[it] = it
		cands[it] = singles[it : it+1 : it+1]
	}
	var all []Itemset
	for size := 1; ; size++ {
		counts := make([]int, len(cands))
		sups := make([]float64, len(cands))
		// The function never fails, so ForEach returns nil.
		_ = parallel.ForEach(len(cands), cfg.Workers, func(i int) error {
			counts[i], sups[i] = d.estimateCandidate(bf, cands[i], observed)
			return nil
		})
		var level []Itemset
		var key [80]byte
		for i, cand := range cands {
			if sups[i] >= cfg.MinSupport {
				level = append(level, Itemset{Items: cand, Support: sups[i]})
				observed[string(appendKey(key[:0], cand))] = counts[i]
			}
		}
		all = append(all, level...)
		if size == cfg.MaxSize {
			break
		}
		if cands = generateCandidates(level); len(cands) == 0 {
			break
		}
	}
	sortItemsets(all)
	return all
}

// estimateCandidate returns cand's observed contains-all count and its
// estimated true support. Every non-empty proper subset of cand must be in
// observed (mineRandomized's walk guarantees it); observed is only read.
func (d *Dataset) estimateCandidate(bf BitFlip, cand []int, observed map[string]int) (int, float64) {
	k := len(cand)
	var colArr [16][]uint64 // MiningConfig caps itemsets at 16 items
	cols := colArr[:k]
	for b, it := range cand {
		cols[b] = d.cols[it]
	}
	count := andPopcountCols(cols)

	// table[m] counts the transactions holding every cand[b] with bit b set
	// in m, as PatternCountsWorkers lays it out before its Möbius pass.
	table := make([]int, 1<<uint(k))
	table[0], table[len(table)-1] = d.n, count
	var subArr [16]int
	var key [80]byte
	for m := 1; m < len(table)-1; m++ {
		sub := subArr[:0]
		for b, it := range cand {
			if m&(1<<uint(b)) != 0 {
				sub = append(sub, it)
			}
		}
		table[m] = observed[string(appendKey(key[:0], sub))]
	}
	mobius(table, k)
	return count, bf.estimateFromCounts(table, d.n, k)
}

// sortItemsets orders mined itemsets by size, then lexicographically — the
// one output order both walks normalize to.
func sortItemsets(all []Itemset) {
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].Items, all[j].Items
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for x := range a {
			if a[x] != b[x] {
				return a[x] < b[x]
			}
		}
		return false
	})
}

// generateCandidates joins frequent (k-1)-itemsets sharing a (k-2)-prefix
// and prunes candidates with an infrequent (k-1)-subset — the classic
// Apriori candidate generation. The level is grouped by prefix first (in
// first-appearance order, so the result never depends on map iteration) and
// joined within groups, with each group's candidates built into one
// exactly-sized arena instead of a per-pair copy.
func generateCandidates(level []Itemset) [][]int {
	if len(level) < 2 {
		return nil
	}
	frequent := make(map[string]bool, len(level))
	for _, s := range level {
		frequent[s.Key()] = true
	}
	k := len(level[0].Items) + 1

	groupOf := make(map[string]int, len(level))
	var groups [][]int // member indices into level, grouped by (k-2)-prefix
	for i, s := range level {
		pk := Itemset{Items: s.Items[:len(s.Items)-1]}.Key()
		g, ok := groupOf[pk]
		if !ok {
			g = len(groups)
			groupOf[pk] = g
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], i)
	}

	var out [][]int
	sub := make([]int, 0, k-1)
	for _, g := range groups {
		if len(g) < 2 {
			continue
		}
		// The arena is sized for every pair of the group, so appends never
		// reallocate and the kept candidate subslices stay valid.
		arena := make([]int, 0, len(g)*(len(g)-1)/2*k)
		for x := 0; x < len(g); x++ {
			for y := x + 1; y < len(g); y++ {
				a, b := level[g[x]].Items, level[g[y]].Items
				la, lb := a[len(a)-1], b[len(b)-1]
				start := len(arena)
				arena = append(arena, a[:len(a)-1]...)
				if la < lb {
					arena = append(arena, la, lb)
				} else {
					arena = append(arena, lb, la)
				}
				// Cap the candidate at its own length so an append by a
				// caller can never clobber a sibling's arena words.
				cand := arena[start : start+k : start+k]
				if allSubsetsFrequent(cand, frequent, sub) {
					out = append(out, cand)
				} else {
					arena = arena[:start]
				}
			}
		}
	}
	return out
}

// allSubsetsFrequent reports whether every (k-1)-subset of cand is in the
// frequent set; sub is a reusable scratch slice.
func allSubsetsFrequent(cand []int, frequent map[string]bool, sub []int) bool {
	for skip := range cand {
		sub = sub[:0]
		for i, v := range cand {
			if i != skip {
				sub = append(sub, v)
			}
		}
		if !frequent[Itemset{Items: sub}.Key()] {
			return false
		}
	}
	return true
}

// CompareMining reports how well the mined collection matches the reference
// collection: itemsets found in both, false positives (mined but not
// reference), and false negatives (reference but not mined).
func CompareMining(reference, mined []Itemset) (both, falsePos, falseNeg int) {
	ref := make(map[string]bool, len(reference))
	for _, s := range reference {
		ref[s.Key()] = true
	}
	seen := make(map[string]bool, len(mined))
	for _, s := range mined {
		seen[s.Key()] = true
		if ref[s.Key()] {
			both++
		} else {
			falsePos++
		}
	}
	for _, s := range reference {
		if !seen[s.Key()] {
			falseNeg++
		}
	}
	return both, falsePos, falseNeg
}
