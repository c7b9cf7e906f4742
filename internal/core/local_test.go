package core

import (
	"reflect"
	"testing"

	"ppdm/internal/noise"
	"ppdm/internal/reconstruct"
	"ppdm/internal/synth"
	"ppdm/internal/tree"
)

// buildLocalSource trains enough scaffolding to get a localSource directly.
func buildLocalSource(t *testing.T, n int) (*localSource, map[int]noise.Model) {
	t.Helper()
	train, err := synth.Generate(synth.Config{Function: synth.F2, N: n, Seed: 61})
	if err != nil {
		t.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(train.Schema(), "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(train, models, 62)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Mode: Local, Noise: models,
		Intervals: DefaultIntervals, LocalMinRecords: 200, ReconEpsilon: 1e-3,
	}
	s := perturbed.Schema()
	parts := make([]reconstruct.Partition, s.NumAttrs())
	for j, a := range s.Attrs {
		p, err := reconstruct.NewPartition(a.Lo, a.Hi, effectiveIntervals(a, cfg.Intervals))
		if err != nil {
			t.Fatal(err)
		}
		parts[j] = p
	}
	cols, err := byClassColumns(perturbed, parts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	labels := make([]int, perturbed.N())
	for i := range labels {
		labels[i] = perturbed.Label(i)
	}
	static, err := staticSource(cols, parts, labels, s.NumClasses())
	if err != nil {
		t.Fatal(err)
	}
	return &localSource{
		StaticSource: static,
		table:        perturbed,
		parts:        parts,
		cfg:          cfg,
		wcache:       reconstruct.NewWeightCache(localWeightCacheEntries),
	}, models
}

// TestLocalRoutesLikeByClass trains Local with LocalMinRecords above the
// table size, so NodeDistributions declines at every node. Local then has
// nothing but the ByClass assignment it routes on, and must grow ByClass's
// tree split for split, with bit-identical Importance.
func TestLocalRoutesLikeByClass(t *testing.T) {
	train, err := synth.Generate(synth.Config{Function: synth.F2, N: 4000, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(train.Schema(), "uniform", 1.0, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(train, models, 64)
	if err != nil {
		t.Fatal(err)
	}
	byClass, err := Train(perturbed, Config{Mode: ByClass, Noise: models})
	if err != nil {
		t.Fatal(err)
	}
	local, err := Train(perturbed, Config{Mode: Local, Noise: models, LocalMinRecords: perturbed.N() + 1})
	if err != nil {
		t.Fatal(err)
	}
	if byClass.Tree.NodeCount() < 3 {
		t.Fatalf("ByClass grew %d nodes; the comparison needs splits", byClass.Tree.NodeCount())
	}
	if local.Tree.String() != byClass.Tree.String() {
		t.Errorf("Local tree differs from ByClass:\n%s\nvs\n%s", local.Tree, byClass.Tree)
	}
	if !reflect.DeepEqual(local.Tree.Importance, byClass.Tree.Importance) {
		t.Errorf("Local Importance %v, ByClass %v", local.Tree.Importance, byClass.Tree.Importance)
	}
}

func TestLocalNodeDistributionsRespectSpan(t *testing.T) {
	src, _ := buildLocalSource(t, 3000)
	rows := make([]int, len(src.Labels()))
	for i := range rows {
		rows[i] = i
	}
	span := tree.Span{Lo: 5, Hi: 30}
	dist, ok := src.NodeDistributions(synth.AttrSalary, rows, span)
	if !ok {
		t.Fatal("NodeDistributions declined a large node")
	}
	if len(dist) != 2 {
		t.Fatalf("got %d class distributions", len(dist))
	}
	for c, d := range dist {
		var inSpan, total float64
		for b, v := range d {
			if v < 0 {
				t.Fatalf("class %d bin %d negative mass %v", c, b, v)
			}
			total += v
			if b >= span.Lo && b <= span.Hi {
				inSpan += v
			}
		}
		if total == 0 {
			t.Fatalf("class %d has zero mass", c)
		}
		if inSpan < total*0.999 {
			t.Fatalf("class %d has %v of %v mass outside span", c, total-inSpan, total)
		}
	}
}

func TestLocalNodeDistributionsDeclines(t *testing.T) {
	src, _ := buildLocalSource(t, 3000)
	// tiny node: below LocalMinRecords
	rows := []int{0, 1, 2, 3, 4}
	if _, ok := src.NodeDistributions(synth.AttrAge, rows, tree.Span{Lo: 0, Hi: 19}); ok {
		t.Error("tiny node accepted for reconstruction")
	}
	// single-bin span cannot be reconstructed
	all := make([]int, len(src.Labels()))
	for i := range all {
		all[i] = i
	}
	if _, ok := src.NodeDistributions(synth.AttrAge, all, tree.Span{Lo: 4, Hi: 4}); ok {
		t.Error("single-bin span accepted")
	}
	// unperturbed attribute (no noise model) declines
	delete(src.cfg.Noise, synth.AttrCar)
	if _, ok := src.NodeDistributions(synth.AttrCar, all, tree.Span{Lo: 0, Hi: 10}); ok {
		t.Error("unperturbed attribute accepted")
	}
}

func TestAdaptiveMinLeaf(t *testing.T) {
	cases := []struct{ n, want int }{
		{1, 10}, {100, 10}, {101, 11}, {10000, 100}, {100000, 317},
	}
	for _, c := range cases {
		if got := adaptiveMinLeaf(c.n); got != c.want {
			t.Errorf("adaptiveMinLeaf(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestEffectiveIntervals(t *testing.T) {
	cont := synth.Schema().Attrs[synth.AttrSalary] // continuous
	if got := effectiveIntervals(cont, 50); got != 50 {
		t.Errorf("continuous attr got %d intervals", got)
	}
	elevel := synth.Schema().Attrs[synth.AttrElevel] // 5 integer values
	if got := effectiveIntervals(elevel, 50); got != 5 {
		t.Errorf("elevel got %d intervals, want 5", got)
	}
	hyears := synth.Schema().Attrs[synth.AttrHyears] // 30 integer values
	if got := effectiveIntervals(hyears, 50); got != 30 {
		t.Errorf("hyears got %d intervals, want 30", got)
	}
	if got := effectiveIntervals(hyears, 10); got != 10 {
		t.Errorf("hyears capped at %d, want 10", got)
	}
}

func TestTrainSingleClassData(t *testing.T) {
	// All records of one class: every mode must degrade to a single leaf
	// that predicts that class.
	train, _ := synth.Generate(synth.Config{Function: synth.F1, N: 3000, Seed: 70})
	idx := []int{}
	for i := 0; i < train.N(); i++ {
		if train.Label(i) == synth.GroupA {
			idx = append(idx, i)
		}
	}
	onlyA, err := train.Subset(idx)
	if err != nil {
		t.Fatal(err)
	}
	models, _ := noise.ModelsForAllAttrs(train.Schema(), "uniform", 0.5, noise.DefaultConfidence)
	perturbed, _ := noise.PerturbTable(onlyA, models, 71)
	for _, mode := range []Mode{Original, ByClass} {
		cfg := Config{Mode: mode}
		if mode.NeedsNoise() {
			cfg.Noise = models
		}
		clf, err := Train(perturbed, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if !clf.Tree.Root.IsLeaf() || clf.Tree.Root.Class != synth.GroupA {
			t.Errorf("%v: single-class data should give a GroupA leaf", mode)
		}
	}
}

// TestLocalNodeCacheReHit asserts the Local-mode tentpole win: repeated node
// geometries (same span, same attribute family width, same observation
// layout) resolve from the per-training weight cache instead of rebuilding
// their transition matrices at every node.
func TestLocalNodeCacheReHit(t *testing.T) {
	src, _ := buildLocalSource(t, 3000)
	rows := make([]int, len(src.Labels()))
	for i := range rows {
		rows[i] = i
	}
	span := tree.Span{Lo: 5, Hi: 30}
	if _, ok := src.NodeDistributions(synth.AttrSalary, rows, span); !ok {
		t.Fatal("NodeDistributions declined a large node")
	}
	after1 := src.wcache.Stats()
	if after1.Misses == 0 {
		t.Fatal("first node reconstruction did not touch the per-training cache")
	}
	if _, ok := src.NodeDistributions(synth.AttrSalary, rows, span); !ok {
		t.Fatal("NodeDistributions declined on the second call")
	}
	after2 := src.wcache.Stats()
	if after2.Misses != after1.Misses {
		t.Errorf("repeated node geometry recomputed its matrices (misses %d -> %d)", after1.Misses, after2.Misses)
	}
	if after2.Hits <= after1.Hits {
		t.Errorf("repeated node geometry did not re-hit the cache (hits %d -> %d)", after1.Hits, after2.Hits)
	}
}
