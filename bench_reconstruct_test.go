package ppdm_test

// End-to-end Local-mode training on the banded reconstruction kernel: Local
// re-reconstructs at every large node, and its node matrices come from the
// shared weight cache, warm after the first iteration. The kernel's own
// dense-vs-banded pairs live in internal/reconstruct, beside the dense-row
// oracle. Results land in BENCH_reconstruct.json.

import (
	"testing"

	"ppdm"
)

func benchTrainLocalRecon(b *testing.B, family string, level float64) {
	b.Helper()
	tb := benchData(b, 10000)
	models, err := ppdm.ModelsForAllAttrs(tb.Schema(), family, level, ppdm.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := ppdm.PerturbTable(tb, models, 2)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ppdm.TrainConfig{Mode: ppdm.Local, Noise: models}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ppdm.Train(perturbed, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTrainLocalUniform100Banded(b *testing.B) { benchTrainLocalRecon(b, "uniform", 1.0) }
func BenchmarkTrainLocalUniform50Banded(b *testing.B)  { benchTrainLocalRecon(b, "uniform", 0.5) }
func BenchmarkTrainLocalGauss100Banded(b *testing.B)   { benchTrainLocalRecon(b, "gaussian", 1.0) }
