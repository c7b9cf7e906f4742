package reconstruct

// Reconstruction-kernel benchmarks. Every benchmark runs the identical
// 100k-observation workload: through the banded kernel (Reconstruct),
// through dense oracle rows (oracle_test.go), or, for uniform noise,
// through the plain fold (scalarIterate on banded rows), which folds every
// cell in index order as the kernel did before rows had runs. A dense
// uniform row, its zero cells dropped, folds the same run as the banded
// one, so uniform noise is paired with the plain fold instead; a gaussian
// or laplace row has no run, and its dense pair differs in kernel cost.
// The weight cache is bypassed so every reconstruction pays the real
// matrix build. Results land in BENCH_reconstruct.json.

import (
	"testing"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
)

// benchReconKernel reconstructs 100k uniform samples on [0, 100],
// perturbed with m, through run at the package-default epsilon, so the
// iteration kernel, not the O(n) observation histogram, dominates.
func benchReconKernel(b *testing.B, m noise.Model, k int, run func([]float64, Config) (Result, error)) {
	b.Helper()
	r := prng.New(1)
	vals := make([]float64, 100000)
	for i := range vals {
		vals[i] = r.Uniform(0, 100) + m.Sample(r)
	}
	part, err := NewPartition(0, 100, k)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := run(vals, Config{Partition: part, Noise: m, DisableWeightCache: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func uniformAt(b *testing.B, level float64) noise.Model {
	b.Helper()
	m, err := noise.UniformForPrivacy(level, 100, noise.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- bounded noise (uniform): one run per row, against the plain fold ---

func BenchmarkReconUniform25K200PlainFold(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.25), 200, reconstructPlainFold)
}
func BenchmarkReconUniform25K200Banded(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.25), 200, Reconstruct)
}
func BenchmarkReconUniform50K200PlainFold(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.5), 200, reconstructPlainFold)
}
func BenchmarkReconUniform50K200Banded(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.5), 200, Reconstruct)
}
func BenchmarkReconUniform25K50PlainFold(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.25), 50, reconstructPlainFold)
}
func BenchmarkReconUniform25K50Banded(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.25), 50, Reconstruct)
}

// --- unbounded noise: the band discards at most DefaultTailMass per row ---

func BenchmarkReconGaussS3K200Dense(b *testing.B) {
	benchReconKernel(b, noise.Gaussian{Sigma: 3}, 200, reconstructDense)
}
func BenchmarkReconGaussS3K200Banded(b *testing.B) {
	benchReconKernel(b, noise.Gaussian{Sigma: 3}, 200, Reconstruct)
}
func BenchmarkReconLaplaceB2K200Dense(b *testing.B) {
	benchReconKernel(b, noise.Laplace{B: 2}, 200, reconstructDense)
}
func BenchmarkReconLaplaceB2K200Banded(b *testing.B) {
	benchReconKernel(b, noise.Laplace{B: 2}, 200, Reconstruct)
}
