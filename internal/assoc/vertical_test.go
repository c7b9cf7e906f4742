package assoc

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ppdm/internal/parallel"
	"ppdm/internal/prng"
)

// renderItemsets renders mined itemsets with exact hex-float supports, so
// golden comparisons are byte-level.
func renderItemsets(sets []Itemset) string {
	var b strings.Builder
	for _, s := range sets {
		fmt.Fprintf(&b, "%v %s\n", s.Items, strconv.FormatFloat(s.Support, 'x', -1, 64))
	}
	return b.String()
}

// rowSupport is the tests' reference support count: a scan of every row
// through Contains, sharing no code with the column kernels.
func rowSupport(d *Dataset, items []int) float64 {
	count := 0
	for i := 0; i < d.N(); i++ {
		if d.ContainsAll(i, items) {
			count++
		}
	}
	return float64(count) / float64(d.N())
}

// rowPatternCounts is the tests' reference 2^k presence/absence pattern
// table: each row's pattern over items, tested bit by bit through Contains.
func rowPatternCounts(d *Dataset, items []int) []int {
	counts := make([]int, 1<<uint(len(items)))
	for i := 0; i < d.N(); i++ {
		mask := 0
		for b, it := range items {
			if d.Contains(i, it) {
				mask |= 1 << uint(b)
			}
		}
		counts[mask]++
	}
	return counts
}

// supportFn estimates the support of an itemset.
type supportFn func(items []int) (float64, error)

// apriori is the reference level-wise walk the oracles share: candidate
// generation over the item universe with Apriori's
// all-(k-1)-subsets-frequent prune, each candidate's support taken from
// support alone, with nothing carried between candidates.
func apriori(numItems int, cfg MiningConfig, support supportFn) ([]Itemset, error) {
	// Level 1: frequent single items.
	var level []Itemset
	for it := 0; it < numItems; it++ {
		s, err := support([]int{it})
		if err != nil {
			return nil, err
		}
		if s >= cfg.MinSupport {
			level = append(level, Itemset{Items: []int{it}, Support: s})
		}
	}
	all := append([]Itemset(nil), level...)

	for size := 2; size <= cfg.MaxSize && len(level) >= 2; size++ {
		frequent := make(map[string]int, len(level))
		for _, s := range level {
			frequent[s.Key()] = 0
		}
		candidates := generateCandidates(level, frequent)
		var next []Itemset
		for _, cand := range candidates {
			s, err := support(cand)
			if err != nil {
				return nil, err
			}
			if s >= cfg.MinSupport {
				next = append(next, Itemset{Items: cand, Support: s})
			}
		}
		level = next
		all = append(all, level...)
	}

	sortItemsets(all)
	return all, nil
}

// oracleFrequent mines exact supports level-wise over the row scan: the
// reference Frequent's run-counted walk must reproduce.
func oracleFrequent(d *Dataset, cfg MiningConfig) ([]Itemset, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return apriori(d.NumItems(), cfg, func(items []int) (float64, error) {
		return rowSupport(d, items), nil
	})
}

// oracleFrequentFromRandomized mines estimated supports level-wise from
// row-scanned pattern tables: the reference FrequentFromRandomized's column
// pattern counts must reproduce.
func oracleFrequentFromRandomized(rd *Dataset, bf BitFlip, cfg MiningConfig) ([]Itemset, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	return apriori(rd.NumItems(), cfg, func(items []int) (float64, error) {
		return bf.estimateFromCounts(rowPatternCounts(rd, items), rd.N(), len(items)), nil
	})
}

// goldenExact and goldenRandomized pin the exact output of Frequent and
// FrequentFromRandomized on the seed-21 workload, recorded with the
// pre-index level-wise horizontal engine. Every worker count must reproduce
// them byte for byte.
const goldenExact = `[0] 0x1.4083126e978d5p-03
[2] 0x1.41e098ead65b8p-03
[4] 0x1.4057619f0fb39p-03
[6] 0x1.43c131d5acb6fp-03
[8] 0x1.3a06d3a06d3ap-03
[10] 0x1.44f3078263ab6p-03
[15] 0x1.3a06d3a06d3ap-03
[17] 0x1.4bf258bf258bfp-03
[18] 0x1.4c1e098ead65bp-03
[19] 0x1.46508dfea2798p-03
[23] 0x1.4c756b2dbd194p-03
[26] 0x1.4395810624dd3p-03
[27] 0x1.41e098ead65b8p-03
[28] 0x1.3a32846ff513dp-03
[29] 0x1.4057619f0fb39p-03
[0 10] 0x1.2ec33e1f67153p-03
[0 26] 0x1.2ec33e1f67153p-03
[2 4] 0x1.317e4b17e4b18p-03
[2 19] 0x1.31a9fbe76c8b4p-03
[4 19] 0x1.317e4b17e4b18p-03
[6 27] 0x1.31a9fbe76c8b4p-03
[6 29] 0x1.317e4b17e4b18p-03
[8 15] 0x1.29a485cd7b901p-03
[8 28] 0x1.29d0369d0369dp-03
[10 26] 0x1.2ec33e1f67153p-03
[15 28] 0x1.29d0369d0369dp-03
[17 18] 0x1.3a32846ff513dp-03
[17 23] 0x1.39db22d0e5604p-03
[18 23] 0x1.3a5e353f7ced9p-03
[27 29] 0x1.317e4b17e4b18p-03
[0 10 26] 0x1.2e978d4fdf3b6p-03
[2 4 19] 0x1.317e4b17e4b18p-03
[6 27 29] 0x1.317e4b17e4b18p-03
[8 15 28] 0x1.29a485cd7b901p-03
[17 18 23] 0x1.39db22d0e5604p-03
`

const goldenRandomized = `[0] 0x1.45b05b05b05b1p-03
[2] 0x1.4fedcba987655p-03
[4] 0x1.3b2a1907f6e5dp-03
[6] 0x1.3530eca864201p-03
[8] 0x1.50c83fb72ea63p-03
[10] 0x1.3654320fedcbbp-03
[15] 0x1.261d950c83fb8p-03
[17] 0x1.4e81b4e81b4e9p-03
[18] 0x1.53579be02468cp-03
[19] 0x1.579be02468ad2p-03
[23] 0x1.4a8641fdb9753p-03
[26] 0x1.3f258bf258bf3p-03
[27] 0x1.47f6e5d4c3b2ap-03
[28] 0x1.3851eb851eb84p-03
[29] 0x1.44d5e6f8091a5p-03
[0 10] 0x1.2fc962fc962fcp-03
[0 26] 0x1.4efb11d33f562p-03
[2 4] 0x1.2956d9b1df624p-03
[2 19] 0x1.277166054f43fp-03
[4 19] 0x1.313579be02468p-03
[6 27] 0x1.2e759203cae77p-03
[6 29] 0x1.3b5aa49938829p-03
[8 15] 0x1.16789abcdf015p-03
[8 28] 0x1.226af37c048d1p-03
[10 26] 0x1.389abcdf01234p-03
[15 28] 0x1.2be635dad524ep-03
[17 18] 0x1.388277166055p-03
[17 23] 0x1.2b549327104fp-03
[18 23] 0x1.3333333333337p-03
[27 29] 0x1.314dbf86a314ep-03
[0 10 26] 0x1.3d17a3f767492p-03
[2 4 19] 0x1.3851eb851eb86p-03
[6 27 29] 0x1.3851eb851eb87p-03
[8 15 28] 0x1.25ccac6fc14bbp-03
[17 18 23] 0x1.2c474cfd585e3p-03
`

// TestMiningGolden pins Frequent and FrequentFromRandomized byte-identical
// to the pre-index engine at every worker count.
func TestMiningGolden(t *testing.T) {
	d, _, err := Generate(GenConfig{N: 12000, Items: 30, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := NewBitFlip(0.2)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := bf.Randomize(d, 22)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		cfg := MiningConfig{MinSupport: 0.08, MaxSize: 4, Workers: workers}
		exact, err := Frequent(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderItemsets(exact); got != goldenExact {
			t.Errorf("workers %d: exact mining diverged from the golden:\n%s", workers, got)
		}
		cfg.MaxSize = 3
		inv, err := FrequentFromRandomized(rd, bf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := renderItemsets(inv); got != goldenRandomized {
			t.Errorf("workers %d: randomized mining diverged from the golden:\n%s", workers, got)
		}
	}
}

// randomDataset draws a small dataset with awkward shapes: item universes
// not divisible by 64, a guaranteed all-zero column, and rows ingested
// through AddBatch in batches of 1, 63 and 65 rows, so batches start and end
// inside 64-row column words. It returns the ingested rows too.
func randomDataset(t *testing.T, r *rand.Rand) (*Dataset, int, [][]int) {
	numItems := 1 + r.Intn(130)
	n := 1 + r.Intn(300)
	d, err := NewDataset(numItems)
	if err != nil {
		t.Fatal(err)
	}
	zero := r.Intn(numItems) // this item never appears: an all-zero column
	txs := make([][]int, n)
	for i := range txs {
		for it := 0; it < numItems; it++ {
			if it != zero && r.Float64() < 0.3 {
				txs[i] = append(txs[i], it)
			}
		}
	}
	for rest := txs; len(rest) > 0; {
		size := min([]int{1, 63, 65}[r.Intn(3)], len(rest))
		if err := d.AddBatch(rest[:size]); err != nil {
			t.Fatal(err)
		}
		rest = rest[size:]
	}
	return d, zero, txs
}

// TestVerticalHorizontalSupportProperty checks that rows ingested in
// batches that split column words read back as ingested, and checks column
// support and pattern counting against the row-scan oracle on those
// datasets, including all-zero columns and item universes not divisible by
// 64.
func TestVerticalHorizontalSupportProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		d, zero, txs := randomDataset(t, r)
		for i, tx := range txs {
			if d.Size(i) != len(tx) || !d.ContainsAll(i, tx) {
				t.Logf("row %d does not read back as ingested: %v", i, tx)
				return false
			}
		}
		// random itemsets, always including one containing the zero column
		queries := [][]int{{zero}}
		for q := 0; q < 8; q++ {
			k := 1 + r.Intn(5)
			items := make([]int, k)
			for i := range items {
				items[i] = r.Intn(d.NumItems())
			}
			queries = append(queries, items)
		}
		for _, items := range queries {
			hs := rowSupport(d, items)
			vs, err := d.Support(items)
			if err != nil {
				t.Fatal(err)
			}
			if hs != vs {
				t.Logf("support mismatch on %v: row scan %v columns %v", items, hs, vs)
				return false
			}
			hc := rowPatternCounts(d, items)
			vc, err := d.PatternCounts(items)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(hc, vc) {
				t.Logf("pattern counts mismatch on %v:\nrow scan %v\ncolumns  %v", items, hc, vc)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestLongColumnCountsMatchRowScan checks Support and PatternCounts of a
// three-item set against the row scan on 393,216 transactions: each column
// is 24 full andBlock blocks, and the set's count and its full submask go
// through countRun's prefix path.
func TestLongColumnCountsMatchRowScan(t *testing.T) {
	const n = 393216
	d, err := NewDataset(6)
	if err != nil {
		t.Fatal(err)
	}
	r := prng.New(17)
	batch := make([][]int, 0, TxFileBatch)
	for i := 0; i < n; i++ {
		var tx []int
		for it := 0; it < 6; it++ {
			if r.Bernoulli(0.25) {
				tx = append(tx, it)
			}
		}
		batch = append(batch, tx)
		if len(batch) == cap(batch) {
			if err := d.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := d.AddBatch(batch); err != nil {
		t.Fatal(err)
	}
	items := []int{0, 2, 5}
	s, err := d.Support(items)
	if err != nil {
		t.Fatal(err)
	}
	if hs := rowSupport(d, items); s != hs {
		t.Errorf("column support %v differs from the row scan's %v", s, hs)
	}
	c, err := d.PatternCounts(items)
	if err != nil {
		t.Fatal(err)
	}
	if hc := rowPatternCounts(d, items); !reflect.DeepEqual(c, hc) {
		t.Errorf("column pattern counts differ from the row scan's:\n%v\n%v", c, hc)
	}
}

// TestMiningEngineEquivalence mines one dataset exactly and from its
// randomization, and checks both results deeply equal the row-scan
// oracle's.
func TestMiningEngineEquivalence(t *testing.T) {
	d, _, err := Generate(GenConfig{N: 4596, Items: 30, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := NewBitFlip(0.2)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := bf.Randomize(d, 32)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MiningConfig{MinSupport: 0.1, MaxSize: 3, Workers: 1}

	exactH, err := oracleFrequent(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	invH, err := oracleFrequentFromRandomized(rd, bf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exactV, err := Frequent(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exactH, exactV) {
		t.Error("exact mining differs from the row-scan oracle")
	}
	invV, err := FrequentFromRandomized(rd, bf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(invH, invV) {
		t.Error("randomized mining differs from the row-scan oracle")
	}
}

// noisyEstimationDataset draws a small, dense dataset: few transactions and
// a near-0.5 flip probability make the channel-inversion estimates noisy
// enough that a superset's estimate regularly exceeds a subset's.
func noisyEstimationDataset(tb testing.TB, r *rand.Rand) *Dataset {
	numItems := 8 + r.Intn(16)
	n := 30 + r.Intn(100)
	d, err := NewDataset(numItems)
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < n; i++ {
		var tx []int
		for it := 0; it < numItems; it++ {
			if r.Float64() < 0.4 {
				tx = append(tx, it)
			}
		}
		if err := d.Add(tx); err != nil {
			tb.Fatal(err)
		}
	}
	return d
}

// TestRandomizedMiningEngineProperty races estimated mining against the
// row-scan oracle on noisy datasets with the support threshold drawn inside
// the estimate distribution. Channel-inversion estimates are not
// anti-monotone (a superset's inverted estimate can exceed a subset's), so
// Apriori's all-(k-1)-subsets-frequent prune actually removes candidates
// here — this pins the property that production runs the oracle's
// level-wise candidate walk, prune included; a column miner that skipped
// the prune would diverge on these workloads. The seed sweep is fixed (not time-seeded)
// because the divergence shape — prefix pair frequent, cross-branch subset
// infrequent, candidate estimate above threshold — only arises on some
// seeds, and those must be covered on every run.
func TestRandomizedMiningEngineProperty(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		r := rand.New(rand.NewSource(seed))
		d := noisyEstimationDataset(t, r)
		bf, err := NewBitFlip(0.4 + 0.08*r.Float64())
		if err != nil {
			t.Fatal(err)
		}
		cfg := MiningConfig{MinSupport: 0.1 + 0.15*r.Float64(), MaxSize: 4, Workers: 1}
		want, err := oracleFrequentFromRandomized(d, bf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := FrequentFromRandomized(d, bf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("seed %d: production and oracle mined different sets:\nrow scan:\n%scolumns:\n%s",
				seed, renderItemsets(want), renderItemsets(got))
		}
	}
}

// Layout of a FuzzMining input: a 7-byte header, then rows of
// ⌈items/8⌉ bytes each, bit it of a row (little-endian) holding item it.
const (
	fuzzMaxItems = 24
	fuzzMaxRows  = 200
	fuzzHeader   = 7
)

// fuzzBatchSizes are the AddBatch sizes a fuzz input picks from: 1, 63 and
// 65 start and end batches inside 64-row column words.
var fuzzBatchSizes = [4]int{1, 63, 65, fuzzMaxRows}

// encodeMiningInput writes a FuzzMining input: byte 0 is the item
// count − 1, bytes 1–2 the flip probability in units of 2^-17, bytes 3–4 the
// minimum support in units of 2^-16, less one unit, byte 5 the maximum
// itemset size − 1, and 2-bit fields of byte 6 pick each AddBatch size from
// fuzzBatchSizes in turn.
func encodeMiningInput(d *Dataset, f, minSupport float64, maxSize int, batches byte) []byte {
	rowBytes := (d.NumItems() + 7) / 8
	out := make([]byte, fuzzHeader, fuzzHeader+d.N()*rowBytes)
	out[0] = byte(d.NumItems() - 1)
	binary.LittleEndian.PutUint16(out[1:], uint16(f*(1<<17)))
	binary.LittleEndian.PutUint16(out[3:], uint16(minSupport*(1<<16)-1))
	out[5] = byte(maxSize - 1)
	out[6] = batches
	for i := 0; i < d.N(); i++ {
		row := make([]byte, rowBytes)
		for it := 0; it < d.NumItems(); it++ {
			if d.Contains(i, it) {
				row[it/8] |= 1 << (it % 8)
			}
		}
		out = append(out, row...)
	}
	return out
}

// decodeMiningInput reads what encodeMiningInput writes, for any bytes: at
// most fuzzMaxItems items and fuzzMaxRows rows, ingested through AddBatch
// in the sizes byte 6 picks. ok is false when the header is short.
func decodeMiningInput(tb testing.TB, data []byte) (d *Dataset, bf BitFlip, cfg MiningConfig, ok bool) {
	if len(data) < fuzzHeader {
		return nil, bf, cfg, false
	}
	numItems := 1 + int(data[0])%fuzzMaxItems
	bf = BitFlip{F: float64(binary.LittleEndian.Uint16(data[1:])) / (1 << 17)}
	cfg = MiningConfig{
		MinSupport: (float64(binary.LittleEndian.Uint16(data[3:])) + 1) / (1 << 16),
		MaxSize:    1 + int(data[5])%4,
	}
	rowBytes := (numItems + 7) / 8
	rows := data[fuzzHeader:]
	txs := make([][]int, min(len(rows)/rowBytes, fuzzMaxRows))
	for i := range txs {
		row := rows[i*rowBytes : (i+1)*rowBytes]
		for it := 0; it < numItems; it++ {
			if row[it/8]&(1<<(it%8)) != 0 {
				txs[i] = append(txs[i], it)
			}
		}
	}
	d, err := NewDataset(numItems)
	if err != nil {
		tb.Fatal(err)
	}
	for j := 0; len(txs) > 0; j++ {
		size := min(fuzzBatchSizes[data[6]>>(2*(j%4))&3], len(txs))
		if err := d.AddBatch(txs[:size]); err != nil {
			tb.Fatal(err)
		}
		txs = txs[size:]
	}
	return d, bf, cfg, true
}

// FuzzMining checks both miners against the row-scan oracle on any small
// dataset, flip probability, threshold and size bound: at Workers 1 and 2,
// Frequent must deeply equal oracleFrequent, and FrequentFromRandomized
// must deeply equal oracleFrequentFromRandomized. Support, PatternCounts
// and EstimateSupport of the first min(items, 6) items must equal their
// row-scan counterparts bit for bit. The seeds are the noisy
// shapes of TestRandomizedMiningEngineProperty on which Apriori's subset
// prune removes a candidate whose own estimate passes the threshold.
func FuzzMining(f *testing.F) {
	for i, seed := range []int64{8, 12, 16, 43, 45, 56, 70, 80, 81, 84, 87, 97} {
		r := rand.New(rand.NewSource(seed))
		d := noisyEstimationDataset(f, r)
		flip := 0.4 + 0.08*r.Float64()
		minSupport := 0.1 + 0.15*r.Float64()
		// i*37 gives each seed a different run of AddBatch sizes.
		f.Add(encodeMiningInput(d, flip, minSupport, 4, byte(i*37)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d, bf, cfg, ok := decodeMiningInput(t, data)
		if !ok {
			return
		}
		if d.N() == 0 {
			if _, err := Frequent(d, cfg); err == nil {
				t.Fatal("an empty dataset mined exactly without error")
			}
			if _, err := FrequentFromRandomized(d, bf, cfg); err == nil {
				t.Fatal("an empty dataset mined without error")
			}
			return
		}
		query := make([]int, min(d.NumItems(), 6))
		for i := range query {
			query[i] = i
		}
		wantSupport, wantCounts := rowSupport(d, query), rowPatternCounts(d, query)
		if s, err := d.Support(query); err != nil || s != wantSupport {
			t.Fatalf("Support(%v) = %v, %v; the row scan's is %v", query, s, err, wantSupport)
		}
		if c, err := d.PatternCounts(query); err != nil || !reflect.DeepEqual(c, wantCounts) {
			t.Fatalf("PatternCounts(%v) = %v, %v; the row scan's are %v", query, c, err, wantCounts)
		}
		wantEst := bf.estimateFromCounts(wantCounts, d.N(), len(query))
		if e, err := bf.EstimateSupport(d, query); err != nil || e != wantEst {
			t.Fatalf("F %v: EstimateSupport(%v) = %v, %v; from the row scan's counts %v", bf.F, query, e, err, wantEst)
		}
		wantExact, err := oracleFrequent(d, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracleFrequentFromRandomized(d, bf, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			cfg.Workers = workers
			gotExact, err := Frequent(d, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(wantExact, gotExact) {
				t.Fatalf("workers %d, %+v: exactly mined sets differ:\nrow scan:\n%scolumns:\n%s",
					workers, cfg, renderItemsets(wantExact), renderItemsets(gotExact))
			}
			got, err := FrequentFromRandomized(d, bf, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("workers %d, F %v, %+v: mined sets differ:\nrow scan:\n%scolumns:\n%s",
					workers, bf.F, cfg, renderItemsets(want), renderItemsets(got))
			}
		}
	})
}

// TestMiningAllocs pins the heap use of both miners and of EstimateSupport
// to their candidates rather than their rows: for each call, one run on 10k
// and one on 100k transactions of the same shape (the same candidates at
// every level, the same planted pattern) must allocate within one 100k-row
// column of each other, so no count allocates scratch the length of a
// column. Frequent mines the clean rows, FrequentFromRandomized their
// randomization, and EstimateSupport estimates the first planted pattern's
// support from the randomization. The check reads process-wide TotalAlloc,
// so it runs at GOMAXPROCS 1, and it is skipped under -race.
func TestMiningAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on synchronization")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	bf, err := NewBitFlip(0.2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := MiningConfig{MinSupport: 0.1, MaxSize: 3, Workers: 1}
	calls := []struct {
		name string
		run  func(clean, randomized *Dataset, pattern []int) error
	}{
		{"Frequent", func(clean, _ *Dataset, _ []int) error {
			_, err := Frequent(clean, cfg)
			return err
		}},
		{"FrequentFromRandomized", func(_, randomized *Dataset, _ []int) error {
			_, err := FrequentFromRandomized(randomized, bf, cfg)
			return err
		}},
		{"EstimateSupport", func(_, randomized *Dataset, pattern []int) error {
			_, err := bf.EstimateSupport(randomized, pattern)
			return err
		}},
	}
	const large = 100000
	allocated := make([][2]uint64, len(calls)) // [call][size]
	for i, n := range []int{10000, large} {
		d, patterns, err := Generate(GenConfig{N: n, Items: 40, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		rd, err := bf.Randomize(d, 2)
		if err != nil {
			t.Fatal(err)
		}
		for c, call := range calls {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := call.run(d, rd, patterns[0])
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			allocated[c][i] = after.TotalAlloc - before.TotalAlloc
		}
	}
	column := uint64((large + 63) / 64 * 8)
	for c, call := range calls {
		a := allocated[c]
		diff := max(a[0], a[1]) - min(a[0], a[1])
		if diff >= column {
			t.Errorf("%s: 10k rows allocated %d B and 100k rows %d B: they differ by %d B, at least one %d-row column (%d B)",
				call.name, a[0], a[1], diff, large, column)
		}
	}
}

// TestCountRun checks the run kernel against a word-by-word count: runs of
// 1–5 candidates sharing a prefix of k−1 items, k = 1..6, over columns that
// span several stack blocks with a ragged tail.
func TestCountRun(t *testing.T) {
	r := prng.New(23)
	words := 3*andBlock + 17
	const numItems = 10 // a 5-item prefix and 5 last items
	d := &Dataset{numItems: numItems, n: 64 * words, cols: make([][]uint64, numItems)}
	for c := range d.cols {
		d.cols[c] = make([]uint64, words)
		for w := range d.cols[c] {
			d.cols[c][w] = r.Uint64() | r.Uint64() // about 3/4 of the bits set
		}
	}
	for k := 1; k <= 6; k++ {
		for size := 1; size <= 5; size++ {
			run := make([][]int, size)
			for j := range run {
				for it := 0; it < k-1; it++ {
					run[j] = append(run[j], it)
				}
				run[j] = append(run[j], k-1+j)
			}
			counts := make([]int, size)
			d.countRun(run, counts)
			for j, cand := range run {
				want := 0
				for w := 0; w < words; w++ {
					v := ^uint64(0)
					for _, it := range cand {
						v &= d.cols[it][w]
					}
					for ; v != 0; v &= v - 1 {
						want++
					}
				}
				if counts[j] != want {
					t.Errorf("k %d, run of %d, candidate %v: counted %d transactions, want %d", k, size, cand, counts[j], want)
				}
			}
		}
	}
}

// TestConcurrentAutoIndex counts support from many goroutines at once; run
// under -race this checks that concurrent counts only read the columns.
func TestConcurrentAutoIndex(t *testing.T) {
	d, patterns, err := Generate(GenConfig{N: 4196, Items: 20, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	want := rowSupport(d, patterns[0])
	got, err := parallel.Map(16, 8, func(i int) (float64, error) {
		return d.Support(patterns[0])
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range got {
		if s != want {
			t.Fatalf("concurrent column support %v, want %v", s, want)
		}
	}
}

// TestAddBatchInvalidatesIndex checks that counts after growing the dataset
// cover the new rows.
func TestAddBatchInvalidatesIndex(t *testing.T) {
	d, err := NewDataset(4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := d.Add([]int{0}); err != nil {
			t.Fatal(err)
		}
	}
	if s, err := d.Support([]int{0}); err != nil || s != 1 {
		t.Fatalf("support before growth = %v, %v; want 1", s, err)
	}
	if err := d.Add([]int{1}); err != nil {
		t.Fatal(err)
	}
	s, err := d.Support([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if want := 10.0 / 11.0; s != want {
		t.Errorf("support after growth = %v, want %v", s, want)
	}
}

// TestIndexValidation covers the column counters' error paths.
func TestIndexValidation(t *testing.T) {
	empty, _ := NewDataset(3)
	if _, err := empty.Support([]int{0}); err == nil {
		t.Error("empty dataset counted")
	}
	d, _ := NewDataset(3)
	_ = d.Add([]int{0, 2})
	if _, err := d.Support([]int{5}); err == nil {
		t.Error("out-of-range item accepted by Support")
	}
	if _, err := d.PatternCounts(nil); err == nil {
		t.Error("empty pattern list accepted")
	}
	if _, err := d.PatternCounts([]int{-1}); err == nil {
		t.Error("negative item accepted")
	}
	if s, err := d.Support(nil); err != nil || s != 1 {
		t.Errorf("empty-itemset support = %v, %v; want 1", s, err)
	}
}

// TestKeyCanonical checks the packed key is injective over item lists: keys
// are equal exactly when the lists are equal, including multi-byte IDs.
func TestKeyCanonical(t *testing.T) {
	f := func(a, b []uint16) bool {
		ia := make([]int, len(a))
		for i, v := range a {
			ia[i] = int(v)
		}
		ib := make([]int, len(b))
		for i, v := range b {
			ib[i] = int(v)
		}
		ka := Itemset{Items: ia}.Key()
		kb := Itemset{Items: ib}.Key()
		return (ka == kb) == reflect.DeepEqual(ia, ib)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// a set larger than the stack array still round-trips distinctly
	big := make([]int, 40)
	for i := range big {
		big[i] = 1 << 20 * (i + 1)
	}
	if (Itemset{Items: big}).Key() == (Itemset{Items: big[:39]}).Key() {
		t.Error("long keys collide")
	}
}
