package ppdm_test

// In-memory vs streamed pairs for the record-stream subsystem
// (internal/stream). Each pair runs the identical workload through the
// materialized path and the batch-stream path; by the equivalence tests in
// stream_test.go the outputs are byte-identical, so the delta measures pure
// streaming overhead (batch bookkeeping + lazy substream splitting) against
// the in-memory cost — while the streamed variant holds only O(batch)
// records at a time. Recorded numbers live in BENCH_stream.json.

import (
	"io"
	"testing"

	"ppdm"
)

const streamBenchN = 50000

func benchModels(b *testing.B) map[int]ppdm.NoiseModel {
	b.Helper()
	models, err := ppdm.ModelsForAllAttrs(ppdm.BenchmarkSchema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	return models
}

// drain pulls every batch of a record source and discards it.
func drain(b *testing.B, src ppdm.RecordSource) int {
	b.Helper()
	n := 0
	for {
		batch, err := src.Next()
		if err == io.EOF {
			return n
		}
		if err != nil {
			b.Fatal(err)
		}
		n += batch.N()
	}
}

func BenchmarkGenPerturbInMemory(b *testing.B) {
	models := benchModels(b)
	for i := 0; i < b.N; i++ {
		tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: streamBenchN, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ppdm.PerturbTable(tb, models, uint64(i)+1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenPerturbStreamed(b *testing.B) {
	models := benchModels(b)
	for i := 0; i < b.N; i++ {
		src, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F2, N: streamBenchN, Seed: uint64(i)}, 0)
		if err != nil {
			b.Fatal(err)
		}
		perturbed, err := ppdm.PerturbStream(src, models, uint64(i)+1, 0)
		if err != nil {
			b.Fatal(err)
		}
		if got := drain(b, perturbed); got != streamBenchN {
			b.Fatalf("streamed %d records, want %d", got, streamBenchN)
		}
	}
}

func BenchmarkReconstructColumnInMemory(b *testing.B) {
	models := benchModels(b)
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: streamBenchN, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(tb, models, 2)
	if err != nil {
		b.Fatal(err)
	}
	ageIdx, _ := tb.Schema().AttrIndex("age")
	part, _ := ppdm.NewPartition(20, 80, 50)
	col := perturbed.Column(ageIdx)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Reconstruct(col, ppdm.ReconstructConfig{
			Partition: part, Noise: models[ageIdx], Epsilon: 1e-3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructColumnStreamed(b *testing.B) {
	models := benchModels(b)
	ageIdx, _ := ppdm.BenchmarkSchema().AttrIndex("age")
	part, _ := ppdm.NewPartition(20, 80, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Full streamed pass: gen → perturb → collect → reconstruct, no
		// table in memory (the in-memory pair amortizes gen+perturb away;
		// this pair deliberately includes the one-pass collection cost).
		src, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F2, N: streamBenchN, Seed: 1}, 0)
		if err != nil {
			b.Fatal(err)
		}
		perturbed, err := ppdm.PerturbStream(src, models, 2, 0)
		if err != nil {
			b.Fatal(err)
		}
		stats, err := ppdm.CollectStreamStats(perturbed, map[int]ppdm.Partition{ageIdx: part}, models)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := stats.Collector(ageIdx).Reconstruct(ppdm.ReconstructConfig{Epsilon: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveBayesInMemory(b *testing.B) {
	models := benchModels(b)
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: streamBenchN, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(tb, models, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ppdm.NaiveBayesConfig{Mode: ppdm.ByClass, Noise: models}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.TrainNaiveBayes(perturbed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNaiveBayesStreamed(b *testing.B) {
	models := benchModels(b)
	cfg := ppdm.NaiveBayesConfig{Mode: ppdm.ByClass, Noise: models}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F2, N: streamBenchN, Seed: 1}, 0)
		if err != nil {
			b.Fatal(err)
		}
		perturbed, err := ppdm.PerturbStream(src, models, 2, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ppdm.TrainNaiveBayesStream(perturbed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sharded Apriori support counting (assoc on internal/parallel) ---

func benchBaskets(b *testing.B) (*ppdm.Transactions, [][]int) {
	b.Helper()
	data, patterns, err := ppdm.GenerateBaskets(ppdm.BasketGenConfig{N: 100000, Items: 40, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	return data, patterns
}

func benchMining(b *testing.B, workers int) {
	b.Helper()
	data, _ := benchBaskets(b)
	cfg := ppdm.MiningConfig{MinSupport: 0.1, MaxSize: 3, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.FrequentItemsets(data, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAprioriSerial(b *testing.B)  { benchMining(b, 1) }
func BenchmarkAprioriSharded(b *testing.B) { benchMining(b, 0) }
