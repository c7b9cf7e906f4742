package core

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
	"ppdm/internal/tree"
)

// colstreamData generates a perturbed benchmark table plus its noise models.
func colstreamData(t *testing.T, n int, seed uint64) (*dataset.Table, map[int]noise.Model) {
	t.Helper()
	clean, err := synth.Generate(synth.Config{Function: synth.F2, N: n, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	models, err := noise.ModelsForAllAttrs(clean.Schema(), "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		t.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(clean, models, seed+1)
	if err != nil {
		t.Fatal(err)
	}
	return perturbed, models
}

// TestTrainStreamMatchesTrain is the core equivalence test: for every
// supported mode and at Workers 1 and 8, the out-of-core path must
// serialize to the identical classifier document as the in-memory path.
func TestTrainStreamMatchesTrain(t *testing.T) {
	perturbed, models := colstreamData(t, 6000, 21)
	for _, mode := range []Mode{Original, Randomized, Global, ByClass} {
		for _, workers := range []int{1, 8} {
			cfg := Config{Mode: mode, Workers: workers}
			if mode.NeedsNoise() {
				cfg.Noise = models
			}
			// Fork deep even at this scale so the subtree-parallel path is
			// genuinely exercised at workers 8.
			cfg.Tree.SubtreeMinRows = 64

			want, err := Train(perturbed, cfg)
			if err != nil {
				t.Fatalf("mode %v workers %d: Train: %v", mode, workers, err)
			}
			got, err := TrainStream(stream.FromTable(perturbed, 777), cfg)
			if err != nil {
				t.Fatalf("mode %v workers %d: TrainStream: %v", mode, workers, err)
			}

			var wantDoc, gotDoc bytes.Buffer
			if err := want.Save(&wantDoc); err != nil {
				t.Fatal(err)
			}
			if err := got.Save(&gotDoc); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(wantDoc.Bytes(), gotDoc.Bytes()) {
				t.Errorf("mode %v workers %d: streamed classifier differs from in-memory classifier", mode, workers)
			}
			for a := range want.Tree.Importance {
				if want.Tree.Importance[a] != got.Tree.Importance[a] {
					t.Errorf("mode %v workers %d: Importance[%d] %v != %v",
						mode, workers, a, got.Tree.Importance[a], want.Tree.Importance[a])
				}
			}
		}
	}
}

// TestTrainStreamRejectsLocal documents the one unsupported mode, which the
// spill and the merge both reject.
func TestTrainStreamRejectsLocal(t *testing.T) {
	perturbed, models := colstreamData(t, 1200, 5)
	_, err := TrainStream(stream.FromTable(perturbed, 0), Config{Mode: Local, Noise: models})
	if err == nil {
		t.Fatal("Local mode accepted by TrainStream")
	}
	sh, err := SpillShard(stream.FromTable(perturbed, 0), Config{Mode: ByClass, Noise: models})
	if err != nil {
		t.Fatal(err)
	}
	defer sh.Close()
	if _, err := MergeShardSpills([]*ShardSpill{sh}, Config{Mode: Local, Noise: models}); err == nil {
		t.Error("Local mode accepted by MergeShardSpills")
	}
}

// TestTrainStreamBatchSizeInvariance checks the spill pass is independent of
// how the stream is batched.
func TestTrainStreamBatchSizeInvariance(t *testing.T) {
	perturbed, models := colstreamData(t, 5000, 9)
	cfg := Config{Mode: ByClass, Noise: models}
	var docs [][]byte
	for _, batch := range []int{1, 100, 8192, 100000} {
		clf, err := TrainStream(stream.FromTable(perturbed, batch), cfg)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		var doc bytes.Buffer
		if err := clf.Save(&doc); err != nil {
			t.Fatal(err)
		}
		docs = append(docs, doc.Bytes())
	}
	for i := 1; i < len(docs); i++ {
		if !bytes.Equal(docs[0], docs[i]) {
			t.Errorf("batch size variant %d trained a different classifier", i)
		}
	}
}

// failingSource passes through its first `after` batches, then fails.
type failingSource struct {
	stream.Source
	after int
}

func (s *failingSource) Next() (*stream.Batch, error) {
	if s.after == 0 {
		return nil, errors.New("source failed mid-stream")
	}
	s.after--
	return s.Source.Next()
}

// TestSpillLifecycle checks what out-of-core training leaves on disk. With
// SpillDir set, TrainStream leaves the directory empty, both when it
// succeeds and when its source fails mid-stream. MergeShardSpills over
// three shards leaves no raw-column file in any shard, a second merge of
// the same shards fails on the consumed column, and Close removes the rest.
func TestSpillLifecycle(t *testing.T) {
	const shardCount = 3
	perturbed, models := colstreamData(t, (shardCount-1)*tree.SegLen+500, 17)
	cfg := Config{Mode: ByClass, Noise: models, SpillDir: t.TempDir()}
	empty := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(cfg.SpillDir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			t.Errorf("%s: spill directory still holds %s", when, e.Name())
		}
	}

	if _, err := TrainStream(stream.FromTable(perturbed, 1000), cfg); err != nil {
		t.Fatal(err)
	}
	empty("after TrainStream")
	if _, err := TrainStream(&failingSource{Source: stream.FromTable(perturbed, 1000), after: 5}, cfg); err == nil {
		t.Fatal("TrainStream succeeded over a failing source")
	}
	empty("after a failed TrainStream")

	// Deal the records on the unit grid, as internal/cluster does: unit u
	// goes to shard u%3, renumbered from 0 within the shard.
	shards := make([]*ShardSpill, shardCount)
	for s := range shards {
		var rows []int
		for lo := s * tree.SegLen; lo < perturbed.N(); lo += shardCount * tree.SegLen {
			for r := lo; r < min(lo+tree.SegLen, perturbed.N()); r++ {
				rows = append(rows, r)
			}
		}
		sub, err := perturbed.Subset(rows)
		if err != nil {
			t.Fatal(err)
		}
		if shards[s], err = SpillShard(stream.FromTable(sub, 0), cfg); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := MergeShardSpills(shards, cfg); err != nil {
		t.Fatal(err)
	}
	for s, sh := range shards {
		raw, err := filepath.Glob(filepath.Join(sh.dir, "*.vals"))
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) != 0 {
			t.Errorf("shard %d still holds raw columns after the merge: %v", s, raw)
		}
	}
	if _, err := MergeShardSpills(shards, cfg); err == nil || !strings.Contains(err.Error(), "consumed") {
		t.Errorf("second merge of the same shards: err = %v, want the consumed raw column named", err)
	}
	for _, sh := range shards {
		if err := sh.Close(); err != nil {
			t.Fatal(err)
		}
	}
	empty("after Close")
}

// TestMergeRejectsMismatchedShards: the merge builds every partition from
// shard 0's schema, so a shard spilled under other attribute domains is
// refused rather than binned on a grid that is not its own.
func TestMergeRejectsMismatchedShards(t *testing.T) {
	perturbed, models := colstreamData(t, 500, 23)
	s := perturbed.Schema()
	attrs := slices.Clone(s.Attrs)
	attrs[0].Hi *= 2
	wider, err := dataset.NewSchema(attrs, s.Classes)
	if err != nil {
		t.Fatal(err)
	}
	other := dataset.NewTable(wider)
	for i := 0; i < perturbed.N(); i++ {
		if err := other.Append(perturbed.Row(i), perturbed.Label(i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Mode: ByClass, Noise: models}
	var shards []*ShardSpill
	for _, table := range []*dataset.Table{perturbed, other} {
		sh, err := SpillShard(stream.FromTable(table, 0), cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer sh.Close()
		shards = append(shards, sh)
	}
	if _, err := MergeShardSpills(shards, cfg); err == nil || !strings.Contains(err.Error(), "shard 1 was spilled under a schema") {
		t.Errorf("merge of shards spilled under different domains: err = %v, want shard 1's schema named", err)
	}
}
