package assoc

import (
	"reflect"
	"testing"
)

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
