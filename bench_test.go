package ppdm_test

// Micro-benchmarks of the pipeline's hot paths, then serial/parallel pairs
// for the worker-pool engine. The paper's experiments run as ppdm-eval
// scenarios (eval/scenarios), which report their own throughput.

import (
	"testing"

	"ppdm"
)

// --- micro-benchmarks of the pipeline's hot paths ---

func benchData(b *testing.B, n int) *ppdm.Table {
	b.Helper()
	tb, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return tb
}

func BenchmarkGenerate10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: 10000, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPerturbTable10k(b *testing.B) {
	tb := benchData(b, 10000)
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.PerturbTable(tb, models, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstruct10k(b *testing.B) {
	tb := benchData(b, 10000)
	models, _ := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	perturbed, _ := ppdm.PerturbTable(tb, models, 2)
	ageIdx, _ := tb.Schema().AttrIndex("age")
	col := perturbed.Column(ageIdx)
	part, _ := ppdm.NewPartition(20, 80, 50)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Reconstruct(col, ppdm.ReconstructConfig{
			Partition: part, Noise: models[ageIdx], Epsilon: 1e-3,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func benchTrain(b *testing.B, mode ppdm.Mode) {
	tb := benchData(b, 10000)
	models, _ := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	perturbed, _ := ppdm.PerturbTable(tb, models, 2)
	cfg := ppdm.TrainConfig{Mode: mode}
	input := perturbed
	if mode == ppdm.Original {
		input = tb
	}
	if mode.NeedsNoise() {
		cfg.Noise = models
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Train(input, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainOriginal10k(b *testing.B)   { benchTrain(b, ppdm.Original) }
func BenchmarkTrainRandomized10k(b *testing.B) { benchTrain(b, ppdm.Randomized) }
func BenchmarkTrainGlobal10k(b *testing.B)     { benchTrain(b, ppdm.Global) }
func BenchmarkTrainByClass10k(b *testing.B)    { benchTrain(b, ppdm.ByClass) }
func BenchmarkTrainLocal10k(b *testing.B)      { benchTrain(b, ppdm.Local) }

func BenchmarkPredict(b *testing.B) {
	tb := benchData(b, 10000)
	clf, err := ppdm.Train(tb, ppdm.TrainConfig{Mode: ppdm.Original})
	if err != nil {
		b.Fatal(err)
	}
	rec := tb.Row(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := clf.Predict(rec); err != nil {
			b.Fatal(err)
		}
	}
}

// --- serial vs parallel pairs for the worker-pool engine ---
//
// Each pair runs the identical workload at Workers: 1 and Workers: 0 (all
// cores); by the determinism contract the outputs are byte-identical, so the
// pairs measure pure scheduling benefit. BENCH_parallel.json records the
// ratios measured at GOMAXPROCS=2; on a single core the parallel variants
// degenerate to the serial cost plus negligible chunking overhead.

// pairRecords is the record count of the Generate and PerturbTable pairs,
// which report records/s for BENCH_parallel.json's ratio gate.
const pairRecords = 50000

func reportRecordsPerSec(b *testing.B) {
	b.ReportMetric(float64(pairRecords)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

func benchPerturbWorkers(b *testing.B, workers int) {
	b.Helper()
	tb := benchData(b, pairRecords)
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.PerturbTableWorkers(tb, models, uint64(i), workers); err != nil {
			b.Fatal(err)
		}
	}
	reportRecordsPerSec(b)
}

func BenchmarkPerturbTableSerial(b *testing.B)   { benchPerturbWorkers(b, 1) }
func BenchmarkPerturbTableParallel(b *testing.B) { benchPerturbWorkers(b, 0) }

func benchGenerateWorkers(b *testing.B, workers int) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: pairRecords, Seed: uint64(i), Workers: workers}); err != nil {
			b.Fatal(err)
		}
	}
	reportRecordsPerSec(b)
}

func BenchmarkGenerateSerial(b *testing.B)   { benchGenerateWorkers(b, 1) }
func BenchmarkGenerateParallel(b *testing.B) { benchGenerateWorkers(b, 0) }

func benchReconstructWorkers(b *testing.B, workers int) {
	b.Helper()
	tb := benchData(b, 50000)
	models, _ := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	perturbed, _ := ppdm.PerturbTable(tb, models, 2)
	ageIdx, _ := tb.Schema().AttrIndex("age")
	col := perturbed.Column(ageIdx)
	// At 200 intervals an iteration adds about 214k terms, past the 65,536
	// below which the kernel's row and column passes stay serial.
	part, err := ppdm.NewPartition(20, 80, 200)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A cold cache per call, so the bench measures the full precompute
		// + EM loop, and neither half of the pair warms the other's.
		if _, err := ppdm.Reconstruct(col, ppdm.ReconstructConfig{
			Partition: part, Noise: models[ageIdx], Epsilon: 1e-3, Workers: workers, Cache: ppdm.NewWeightCache(1),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructSerial(b *testing.B)   { benchReconstructWorkers(b, 1) }
func BenchmarkReconstructParallel(b *testing.B) { benchReconstructWorkers(b, 0) }

func benchTrainByClassWorkers(b *testing.B, workers int) {
	b.Helper()
	tb := benchData(b, 50000)
	models, _ := ppdm.ModelsForAllAttrs(tb.Schema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	perturbed, _ := ppdm.PerturbTable(tb, models, 2)
	cfg := ppdm.TrainConfig{Mode: ppdm.ByClass, Noise: models, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Train(perturbed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainByClassSerial(b *testing.B)   { benchTrainByClassWorkers(b, 1) }
func BenchmarkTrainByClassParallel(b *testing.B) { benchTrainByClassWorkers(b, 0) }

// benchTrainLocalWorkers trains Local on 20k records perturbed with uniform
// noise at 100% privacy, the in-memory half of the repository benchmark's
// train workload. The shared weight cache is warm after the first
// iteration, so the pair times the node walks and the reconstructions.
func benchTrainLocalWorkers(b *testing.B, workers int) {
	b.Helper()
	tb := benchData(b, 20000)
	models, _ := ppdm.ModelsForAllAttrs(tb.Schema(), "uniform", 1.0, ppdm.DefaultConfidence)
	perturbed, _ := ppdm.PerturbTable(tb, models, 2)
	cfg := ppdm.TrainConfig{Mode: ppdm.Local, Noise: models, Workers: workers}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Train(perturbed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainLocalSerial(b *testing.B)   { benchTrainLocalWorkers(b, 1) }
func BenchmarkTrainLocalParallel(b *testing.B) { benchTrainLocalWorkers(b, 0) }
