package assoc

import (
	"encoding/binary"
	"fmt"
	"slices"
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
	// Workers bounds the support-counting parallelism (0 = all cores; a
	// negative count is an error). Mined itemsets and supports are
	// identical for every worker count.
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
	if c.Workers < 0 {
		return c, fmt.Errorf("assoc: Workers %d must not be negative (0 means all cores)", c.Workers)
	}
	return c, nil
}

// Frequent mines all frequent itemsets of the clean dataset with exact
// support counting, sorted by size then lexicographically. It runs the
// level-wise walk FrequentFromRandomized runs, with a candidate's support its
// contains-all count over N, so the result is byte-identical at every worker
// count.
func Frequent(d *Dataset, cfg MiningConfig) ([]Itemset, error) {
	if d == nil || d.N() == 0 {
		return nil, fmt.Errorf("assoc: empty dataset")
	}
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	n := float64(d.n)
	return d.mine(cfg, func(_ []int, count int, _ map[string]int) float64 {
		return float64(count) / n
	}), nil
}

// FrequentFromRandomized mines frequent itemsets of the *original* data
// given only the randomized dataset: candidate supports are estimated by
// inverting the randomization channel over each candidate's 2^k pattern
// counts. Inverted estimates are NOT anti-monotone (a superset's estimate
// can exceed a subset's), so the walk's all-(k-1)-subsets-frequent prune is
// load-bearing here, where for exact supports it only skips candidates that
// would fail their own support test. The pattern counts are exact integers,
// so estimates — and the mined set — are byte-identical at every worker
// count. A flip probability that NewBitFlip rejects is an error.
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
	return randomized.mine(cfg, func(cand []int, count int, observed map[string]int) float64 {
		return randomized.estimate(bf, cand, count, observed)
	}), nil
}

// mine is the one level-wise Apriori walk behind both miners. It keeps each
// frequent itemset's observed contains-all count — how many transactions
// hold all of its items — keyed by Key. Candidates of the next level are
// the prefix joins of a level's frequent itemsets with Apriori's
// all-(k-1)-subsets-frequent prune (generateCandidates). A level's
// candidates are cut into runs that share their first k−1 items
// (runBounds), the runs are counted by countRun on the worker pool into
// index-addressed slots, and support turns each candidate's count into its
// support. support runs concurrently and may only read observed, which
// holds the counts of every earlier level; the result is therefore the same
// at every worker count.
func (d *Dataset) mine(cfg MiningConfig, support func(cand []int, count int, observed map[string]int) float64) []Itemset {
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
		runs := runBounds(cands)
		// The function never fails, so ForEach returns nil.
		_ = parallel.ForEach(len(runs)-1, cfg.Workers, func(r int) error {
			lo, hi := runs[r], runs[r+1]
			d.countRun(cands[lo:hi], counts[lo:hi])
			for i := lo; i < hi; i++ {
				sups[i] = support(cands[i], counts[i], observed)
			}
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
		if cands = generateCandidates(level, observed); len(cands) == 0 {
			break
		}
	}
	sortItemsets(all)
	return all
}

// runBounds cuts a level's candidates into runs — stretches of consecutive
// candidates that share their first k−1 items — and returns their bounds:
// run r is cands[b[r]:b[r+1]]. Single items share no prefix worth a run, so
// each is a run of its own and level 1 spreads over the workers. The
// prefixes are compared, so any candidate order counts correctly; the
// lexicographic order generateCandidates produces keeps each prefix in one
// run.
func runBounds(cands [][]int) []int {
	b := []int{0}
	for i := 1; i < len(cands); i++ {
		prev, cand := cands[i-1], cands[i]
		if len(cand) == 1 || !slices.Equal(prev[:len(prev)-1], cand[:len(cand)-1]) {
			b = append(b, i)
		}
	}
	return append(b, len(cands))
}

// estimate returns cand's estimated true support from its observed
// contains-all count. The walk's prune makes every non-empty proper subset
// of cand a frequent itemset of an earlier level, so its count is in
// observed; the empty set is contained in every transaction. The 2^k
// contains-all table therefore needs no counting, and the Möbius pass turns
// it into the exact-pattern counts that estimateFromCounts inverts.
// observed is only read.
func (d *Dataset) estimate(bf BitFlip, cand []int, count int, observed map[string]int) float64 {
	k := len(cand)
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
	return bf.estimateFromCounts(table, d.n, k)
}

// sortItemsets orders mined itemsets by size, then lexicographically — the
// one output order the walk and the tests' reference walk normalize to.
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
// Apriori candidate generation. The keys of frequent must include every
// itemset of level and no other (k-1)-itemset; its values are not read, so
// the walk passes its observed counts. The level is grouped by
// prefix first (in first-appearance order, so the result never depends on
// map iteration) and joined within groups, with each group's candidates
// built into one exactly-sized arena instead of a per-pair copy.
func generateCandidates(level []Itemset, frequent map[string]int) [][]int {
	if len(level) < 2 {
		return nil
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
// frequent set; sub is a reusable scratch slice. The two subsets that drop
// one of cand's last two items are the joined pair, frequent by
// construction, so only the other k−2 are looked up.
func allSubsetsFrequent(cand []int, frequent map[string]int, sub []int) bool {
	for skip := range cand[:len(cand)-2] {
		sub = sub[:0]
		for i, v := range cand {
			if i != skip {
				sub = append(sub, v)
			}
		}
		if _, ok := frequent[Itemset{Items: sub}.Key()]; !ok {
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
