package assoc

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"ppdm/internal/prng"
)

func TestDatasetBasics(t *testing.T) {
	if _, err := NewDataset(0); err == nil {
		t.Error("zero items accepted")
	}
	d, err := NewDataset(70) // spans two words
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]int{0, 5, 64, 69}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]int{5}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add([]int{99}); err == nil {
		t.Error("out-of-range item accepted")
	}
	if d.N() != 2 || d.NumItems() != 70 {
		t.Fatalf("N=%d items=%d", d.N(), d.NumItems())
	}
	if !d.Contains(0, 64) || d.Contains(1, 64) {
		t.Error("Contains wrong")
	}
	if !d.ContainsAll(0, []int{0, 69}) || d.ContainsAll(1, []int{0, 5}) {
		t.Error("ContainsAll wrong")
	}
	if d.Size(0) != 4 || d.Size(1) != 1 {
		t.Errorf("sizes %d, %d", d.Size(0), d.Size(1))
	}
	s, err := d.Support([]int{5})
	if err != nil || s != 1 {
		t.Errorf("Support({5}) = %v, %v", s, err)
	}
	s, _ = d.Support([]int{0, 5})
	if s != 0.5 {
		t.Errorf("Support({0,5}) = %v", s)
	}
	if _, err := d.Support([]int{-1}); err == nil {
		t.Error("negative item accepted")
	}
}

func TestPatternCounts(t *testing.T) {
	d, _ := NewDataset(4)
	_ = d.Add([]int{0, 1}) // mask 11 over items [0,1]
	_ = d.Add([]int{0})    // mask 01
	_ = d.Add([]int{})     // mask 00
	_ = d.Add([]int{1, 2}) // mask 10
	counts, err := d.PatternCounts([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 1, 1, 1}
	for m := range want {
		if counts[m] != want[m] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if _, err := d.PatternCounts(nil); err == nil {
		t.Error("empty item list accepted")
	}
	if _, err := d.PatternCounts([]int{9}); err == nil {
		t.Error("bad item accepted")
	}
}

func TestNewBitFlipValidation(t *testing.T) {
	for _, f := range []float64{-0.1, 0.5, 0.9, math.NaN()} {
		if _, err := NewBitFlip(f); err == nil {
			t.Errorf("NewBitFlip(%v) accepted", f)
		}
	}
	if _, err := NewBitFlip(0.2); err != nil {
		t.Errorf("NewBitFlip(0.2) rejected: %v", err)
	}
}

// TestBitFlipRejectsInvalidF builds BitFlip literals that skip
// NewBitFlip: every method that randomizes or inverts with F must return
// NewBitFlip's error instead of a NaN estimate, an all-frequent mine or a
// flip probability outside [0, 0.5).
func TestBitFlipRejectsInvalidF(t *testing.T) {
	d, err := NewDataset(10)
	if err != nil {
		t.Fatal(err)
	}
	r := prng.New(5)
	for i := 0; i < 200; i++ {
		var tx []int
		for it := 0; it < 10; it++ {
			if r.Bernoulli(0.3) {
				tx = append(tx, it)
			}
		}
		if err := d.Add(tx); err != nil {
			t.Fatal(err)
		}
	}
	cfg := MiningConfig{MinSupport: 0.1, MaxSize: 3, Workers: 1}
	for _, f := range []float64{0.5, 0.7, 1.5, -0.1, math.NaN(), math.Inf(1)} {
		bf := BitFlip{F: f}
		_, want := NewBitFlip(f)
		if want == nil {
			t.Fatalf("NewBitFlip(%v) accepted", f)
		}
		for _, c := range []struct {
			name string
			call func() error
		}{
			{"Randomize", func() error { _, err := bf.Randomize(d, 1); return err }},
			{"EstimateSupport", func() error { _, err := bf.EstimateSupport(d, []int{0, 1}); return err }},
			{"EstimateSupportWorkers", func() error { _, err := bf.EstimateSupportWorkers(d, []int{2}, 1); return err }},
			{"FrequentFromRandomized", func() error { _, err := FrequentFromRandomized(d, bf, cfg); return err }},
		} {
			if err := c.call(); err == nil || err.Error() != want.Error() {
				t.Errorf("F=%v: %s returned %v, want %v", f, c.name, err, want)
			}
		}
	}
	// F = 0 is a valid channel: nothing flips and the estimates are exact.
	if _, err := (BitFlip{}).Randomize(d, 1); err != nil {
		t.Errorf("F=0 rejected: %v", err)
	}
}

func TestRandomizeFlipRate(t *testing.T) {
	d, _ := NewDataset(50)
	r := prng.New(1)
	for i := 0; i < 2000; i++ {
		var tx []int
		for it := 0; it < 50; it++ {
			if r.Bernoulli(0.3) {
				tx = append(tx, it)
			}
		}
		_ = d.Add(tx)
	}
	bf, _ := NewBitFlip(0.2)
	rd, err := bf.Randomize(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	flips := 0
	total := 0
	for i := 0; i < d.N(); i++ {
		for it := 0; it < 50; it++ {
			total++
			if d.Contains(i, it) != rd.Contains(i, it) {
				flips++
			}
		}
	}
	rate := float64(flips) / float64(total)
	if math.Abs(rate-0.2) > 0.01 {
		t.Errorf("flip rate = %v, want ~0.2", rate)
	}
	// determinism
	rd2, _ := bf.Randomize(d, 2)
	for i := 0; i < d.N(); i++ {
		for it := 0; it < 50; it++ {
			if rd.Contains(i, it) != rd2.Contains(i, it) {
				t.Fatal("Randomize not deterministic")
			}
		}
	}
}

// The channel inversion must be exact on noise-free distributions: pushing
// a distribution through the forward channel and inverting recovers it.
func TestInvertChannelExactProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8, fRaw uint8) bool {
		k := int(kRaw%4) + 1
		flip := float64(fRaw%45) / 100 // 0 .. 0.44
		r := prng.New(seed)
		size := 1 << uint(k)
		p := make([]float64, size)
		var sum float64
		for i := range p {
			p[i] = r.Float64()
			sum += p[i]
		}
		for i := range p {
			p[i] /= sum
		}
		// forward channel: out[o] = sum_t p[t] * prod_b P(o_b|t_b)
		out := make([]float64, size)
		for o := 0; o < size; o++ {
			for t := 0; t < size; t++ {
				prob := 1.0
				for b := 0; b < k; b++ {
					if (o>>uint(b))&1 == (t>>uint(b))&1 {
						prob *= 1 - flip
					} else {
						prob *= flip
					}
				}
				out[o] += p[t] * prob
			}
		}
		invertChannel(out, k, flip)
		for i := range p {
			if math.Abs(out[i]-p[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateSupportRecovers(t *testing.T) {
	// Plant one strong pair and estimate its support through randomization.
	d, _ := NewDataset(10)
	r := prng.New(3)
	const n = 50000
	planted := 0
	for i := 0; i < n; i++ {
		var tx []int
		if r.Bernoulli(0.3) {
			tx = append(tx, 2, 7)
			planted++
		}
		if r.Bernoulli(0.1) {
			tx = append(tx, 4)
		}
		_ = d.Add(tx)
	}
	truth := float64(planted) / n
	bf, _ := NewBitFlip(0.1)
	rd, _ := bf.Randomize(d, 4)
	est, err := bf.EstimateSupport(rd, []int{2, 7})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-truth) > 0.02 {
		t.Errorf("estimated support %v, true %v", est, truth)
	}
	// raw support in randomized data must be visibly biased vs the estimate
	raw, _ := rd.Support([]int{2, 7})
	if math.Abs(raw-truth) < math.Abs(est-truth) {
		t.Errorf("raw randomized support (%v) closer to truth than estimate (%v)", raw, est)
	}
}

func TestFrequentHandMined(t *testing.T) {
	// 6 transactions, known frequent sets at minSupport 0.5:
	// {0}: 5/6, {1}: 4/6, {2}: 3/6, {0,1}: 3/6, {0,2}: 3/6
	d, _ := NewDataset(4)
	for _, tx := range [][]int{
		{0, 1, 2}, {0, 1}, {0, 2}, {0, 1, 3}, {0, 2}, {1, 3},
	} {
		_ = d.Add(tx)
	}
	got, err := Frequent(d, MiningConfig{MinSupport: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	key := func(items ...int) string { return Itemset{Items: items}.Key() }
	want := map[string]float64{
		key(0):    5.0 / 6,
		key(1):    4.0 / 6,
		key(2):    3.0 / 6,
		key(0, 1): 3.0 / 6,
		key(0, 2): 3.0 / 6,
	}
	if len(got) != len(want) {
		t.Fatalf("mined %d itemsets, want %d: %v", len(got), len(want), got)
	}
	for _, s := range got {
		w, ok := want[s.Key()]
		if !ok {
			t.Errorf("unexpected itemset %v", s.Items)
			continue
		}
		if math.Abs(s.Support-w) > 1e-12 {
			t.Errorf("itemset %v support %v, want %v", s.Items, s.Support, w)
		}
	}
}

func TestFrequentValidation(t *testing.T) {
	d, _ := NewDataset(3)
	_ = d.Add([]int{0})
	if _, err := Frequent(d, MiningConfig{MinSupport: 0}); err == nil {
		t.Error("min support 0 accepted")
	}
	if _, err := Frequent(d, MiningConfig{MinSupport: 1.5}); err == nil {
		t.Error("min support > 1 accepted")
	}
	if _, err := Frequent(d, MiningConfig{MinSupport: 0.5, MaxSize: 40}); err == nil {
		t.Error("huge max size accepted")
	}
	empty, _ := NewDataset(3)
	if _, err := Frequent(empty, MiningConfig{MinSupport: 0.5}); err == nil {
		t.Error("empty dataset accepted")
	}
	negative := MiningConfig{MinSupport: 0.5, Workers: -3}
	if _, err := Frequent(d, negative); err == nil || !strings.Contains(err.Error(), "must not be negative") {
		t.Errorf("Frequent with Workers -3: err %v, want a negative-count error", err)
	}
	if _, err := FrequentFromRandomized(d, BitFlip{F: 0.2}, negative); err == nil || !strings.Contains(err.Error(), "must not be negative") {
		t.Errorf("FrequentFromRandomized with Workers -3: err %v, want a negative-count error", err)
	}
}

func TestAprioriMonotonicity(t *testing.T) {
	// Every subset of a mined frequent itemset must itself be mined.
	d, _, err := Generate(GenConfig{N: 5000, Items: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	mined, err := Frequent(d, MiningConfig{MinSupport: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	for _, s := range mined {
		have[s.Key()] = true
	}
	for _, s := range mined {
		if len(s.Items) < 2 {
			continue
		}
		sub := make([]int, 0, len(s.Items)-1)
		for skip := range s.Items {
			sub = sub[:0]
			for i, v := range s.Items {
				if i != skip {
					sub = append(sub, v)
				}
			}
			if !have[Itemset{Items: sub}.Key()] {
				t.Fatalf("frequent %v but subset %v missing", s.Items, sub)
			}
		}
	}
}

func TestGenerateValidation(t *testing.T) {
	if _, _, err := Generate(GenConfig{N: 0, Items: 10}); err == nil {
		t.Error("N=0 accepted")
	}
	if _, _, err := Generate(GenConfig{N: 10, Items: 1}); err == nil {
		t.Error("1 item accepted")
	}
	if _, _, err := Generate(GenConfig{N: 10, Items: 5, PatternSize: 9}); err == nil {
		t.Error("pattern larger than universe accepted")
	}
	if _, _, err := Generate(GenConfig{N: 10, Items: 5, PatternProb: 2}); err == nil {
		t.Error("probability > 1 accepted")
	}
}

func TestGenerateDeterministicAndPlantedFrequent(t *testing.T) {
	a, pa, err := Generate(GenConfig{N: 8000, Items: 40, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	b, pb, _ := Generate(GenConfig{N: 8000, Items: 40, Seed: 6})
	if len(pa) != len(pb) {
		t.Fatal("pattern counts differ")
	}
	for i := 0; i < a.N(); i++ {
		for it := 0; it < 40; it++ {
			if a.Contains(i, it) != b.Contains(i, it) {
				t.Fatal("generation not deterministic")
			}
		}
	}
	// each planted pattern's support should be near PatternProb (0.15)
	for _, pat := range pa {
		s, err := a.Support(pat)
		if err != nil {
			t.Fatal(err)
		}
		if s < 0.10 || s > 0.25 {
			t.Errorf("planted pattern %v support %v, want ~0.15", pat, s)
		}
	}
}

// End-to-end: mining the randomized data recovers (almost) the same
// frequent itemsets as mining the original.
func TestRandomizedMiningEndToEnd(t *testing.T) {
	d, _, err := Generate(GenConfig{N: 20000, Items: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := MiningConfig{MinSupport: 0.1, MaxSize: 3}
	reference, err := Frequent(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(reference) < 5 {
		t.Fatalf("reference mining found only %d itemsets", len(reference))
	}
	// F = 0.25 halves every pair's raw support (0.75² ≈ 0.56 retention per
	// pair member), pushing the planted patterns below the threshold for
	// uncorrected mining while the channel inversion still recovers them.
	bf, _ := NewBitFlip(0.25)
	rd, _ := bf.Randomize(d, 8)
	mined, err := FrequentFromRandomized(rd, bf, cfg)
	if err != nil {
		t.Fatal(err)
	}
	both, fp, fn := CompareMining(reference, mined)
	t.Logf("reference=%d mined=%d both=%d fp=%d fn=%d", len(reference), len(mined), both, fp, fn)
	if both < len(reference)*8/10 {
		t.Errorf("recovered only %d/%d reference itemsets", both, len(reference))
	}
	if fp > len(reference)/2 {
		t.Errorf("too many false positives: %d", fp)
	}
	// direct mining of randomized data without correction must be clearly
	// worse (it misses the planted patterns because pair supports shrink)
	naive, err := Frequent(rd, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nBoth, _, _ := CompareMining(reference, naive)
	if nBoth >= both {
		t.Errorf("naive mining (%d matches) not worse than corrected (%d)", nBoth, both)
	}
}

func TestCompareMining(t *testing.T) {
	ref := []Itemset{{Items: []int{1}}, {Items: []int{2}}, {Items: []int{1, 2}}}
	mined := []Itemset{{Items: []int{1}}, {Items: []int{3}}}
	both, fp, fn := CompareMining(ref, mined)
	if both != 1 || fp != 1 || fn != 2 {
		t.Errorf("CompareMining = %d,%d,%d; want 1,1,2", both, fp, fn)
	}
}

func TestDeniabilityOdds(t *testing.T) {
	bf, _ := NewBitFlip(0.2)
	if got := bf.DeniabilityOdds(); math.Abs(got-4) > 1e-12 {
		t.Errorf("odds = %v, want 4", got)
	}
	zero := BitFlip{F: 0}
	if !math.IsInf(zero.DeniabilityOdds(), 1) {
		t.Error("F=0 should give infinite odds")
	}
}
