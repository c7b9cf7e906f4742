package assoc

import (
	"reflect"
	"testing"
)

// Support counting must be exact and identical for every worker count:
// long columns are counted in fixed ColChunk-word shards whose counts fold
// in index order.
func TestSupportWorkerDeterminism(t *testing.T) {
	d, patterns, err := Generate(GenConfig{N: 12288, Items: 30, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	items := patterns[0]
	serial, err := d.SupportWorkers(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		par, err := d.SupportWorkers(items, workers)
		if err != nil {
			t.Fatal(err)
		}
		if par != serial {
			t.Fatalf("workers %d: support %v, serial %v", workers, par, serial)
		}
	}
	// Exactness against a direct count.
	count := 0
	for i := 0; i < d.N(); i++ {
		if d.ContainsAll(i, items) {
			count++
		}
	}
	if want := float64(count) / float64(d.N()); serial != want {
		t.Fatalf("sharded support %v, direct count %v", serial, want)
	}
}

func TestPatternCountsWorkerDeterminism(t *testing.T) {
	d, patterns, err := Generate(GenConfig{N: 8315, Items: 25, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	items := patterns[1]
	serial, err := d.PatternCountsWorkers(items, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := d.PatternCountsWorkers(items, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("pattern counts differ between Workers=1 and Workers=8:\n%v\n%v", serial, par)
	}
	total := 0
	for _, c := range serial {
		total += c
	}
	if total != d.N() {
		t.Fatalf("pattern counts sum to %d, want %d", total, d.N())
	}
}

// Full Apriori runs — exact and channel-inverted — must mine identical
// itemsets and supports at every worker count.
func TestMiningWorkerDeterminism(t *testing.T) {
	d, _, err := Generate(GenConfig{N: 4596, Items: 30, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	bf, err := NewBitFlip(0.2)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := bf.Randomize(d, 12)
	if err != nil {
		t.Fatal(err)
	}
	serial := MiningConfig{MinSupport: 0.1, MaxSize: 3, Workers: 1}
	parallelCfg := MiningConfig{MinSupport: 0.1, MaxSize: 3, Workers: 8}

	refExact, err := Frequent(d, serial)
	if err != nil {
		t.Fatal(err)
	}
	parExact, err := Frequent(d, parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refExact, parExact) {
		t.Error("exact mining differs between Workers=1 and Workers=8")
	}

	refInv, err := FrequentFromRandomized(rd, bf, serial)
	if err != nil {
		t.Fatal(err)
	}
	parInv, err := FrequentFromRandomized(rd, bf, parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(refInv, parInv) {
		t.Error("channel-inverted mining differs between Workers=1 and Workers=8")
	}
}
