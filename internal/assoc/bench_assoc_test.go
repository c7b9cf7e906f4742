package assoc

import "testing"

// The mining pairs run the E12-style 100k-transaction, 40-item workload
// through the row-scan oracle (the *Dense100k baselines: the tests'
// horizontal support and pattern counts under the reference apriori walk)
// and through production on the item columns. Results are byte-identical
// (TestMiningEngineEquivalence, TestRandomizedMiningEngineProperty), so each
// pair isolates the cost of counting and of what the walk reuses.

func benchWorkload(b *testing.B) *Dataset {
	b.Helper()
	d, _, err := Generate(GenConfig{N: 100000, Items: 40, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return d
}

func benchMine(b *testing.B, mine func(*Dataset, MiningConfig) ([]Itemset, error)) {
	b.Helper()
	d := benchWorkload(b)
	cfg := MiningConfig{MinSupport: 0.1, MaxSize: 4, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mine(d, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineLevelwiseDense100k(b *testing.B) { benchMine(b, oracleFrequent) }
func BenchmarkMineVertical100k(b *testing.B)       { benchMine(b, Frequent) }

func benchMineRandomized(b *testing.B, mine func(*Dataset, BitFlip, MiningConfig) ([]Itemset, error)) {
	b.Helper()
	d := benchWorkload(b)
	bf, err := NewBitFlip(0.2)
	if err != nil {
		b.Fatal(err)
	}
	rd, err := bf.Randomize(d, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := MiningConfig{MinSupport: 0.1, MaxSize: 3, Workers: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mine(rd, bf, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMineRandomizedDense100k(b *testing.B) {
	benchMineRandomized(b, oracleFrequentFromRandomized)
}
func BenchmarkMineRandomizedVertical100k(b *testing.B) {
	benchMineRandomized(b, FrequentFromRandomized)
}

// BenchmarkIngest100k appends the 100k workload rows to an empty dataset in
// TxFileBatch batches, the way the transaction-file readers ingest: the
// cost of growing the item columns in place.
func BenchmarkIngest100k(b *testing.B) {
	d := benchWorkload(b)
	rows := make([][]int, d.N())
	for i := range rows {
		for it := 0; it < d.NumItems(); it++ {
			if d.Contains(i, it) {
				rows[i] = append(rows[i], it)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in, err := NewDataset(d.NumItems())
		if err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < len(rows); lo += TxFileBatch {
			if err := in.AddBatch(rows[lo:min(lo+TxFileBatch, len(rows))]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkItemsetKey measures the packed canonical key on a typical mined
// 4-itemset (the candidate-pruning and comparison hot path).
func BenchmarkItemsetKey(b *testing.B) {
	s := Itemset{Items: []int{3, 17, 128, 70000}}
	for i := 0; i < b.N; i++ {
		if len(s.Key()) == 0 {
			b.Fatal("empty key")
		}
	}
}

// BenchmarkGenerateCandidates measures prefix-grouped candidate generation
// on a 435-itemset level (every pair from a 30-item universe), the shape the
// old O(level²) all-pairs join was slowest on.
func BenchmarkGenerateCandidates(b *testing.B) {
	var level []Itemset
	frequent := make(map[string]int)
	for i := 0; i < 30; i++ {
		for j := i + 1; j < 30; j++ {
			s := Itemset{Items: []int{i, j}}
			level = append(level, s)
			frequent[s.Key()] = 0
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := generateCandidates(level, frequent); len(out) == 0 {
			b.Fatal("no candidates")
		}
	}
}
