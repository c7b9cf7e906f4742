package reconstruct

// Dense-vs-banded pairs for the flat-layout reconstruction kernel. Every
// pair runs the identical 100k-observation workload through the banded
// kernel and through dense oracle rows (oracle_test.go); for uniform noise
// the two estimates are bit-identical, for gaussian/laplace they agree
// within the kernel's DefaultTailMass tolerance. A dense uniform row, its
// zero cells dropped, folds the same run as the banded one, so a uniform
// pair differs only in the matrix build; a gaussian or laplace pair
// differs in kernel cost. The weight cache is bypassed so every
// reconstruction pays the real matrix build. Results land in
// BENCH_reconstruct.json.

import (
	"testing"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
)

// benchReconKernel reconstructs 100k uniform samples on [0, 100],
// perturbed with m, at the package-default epsilon, so the iteration
// kernel, not the O(n) observation histogram, dominates.
func benchReconKernel(b *testing.B, m noise.Model, k int, dense bool) {
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
	run := Reconstruct
	if dense {
		run = reconstructDense
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

// --- bounded noise (uniform): banding is exact, one run per row ---

func BenchmarkReconUniform25K200Dense(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.25), 200, true)
}
func BenchmarkReconUniform25K200Banded(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.25), 200, false)
}
func BenchmarkReconUniform50K200Dense(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.5), 200, true)
}
func BenchmarkReconUniform50K200Banded(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.5), 200, false)
}
func BenchmarkReconUniform25K50Dense(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.25), 50, true)
}
func BenchmarkReconUniform25K50Banded(b *testing.B) {
	benchReconKernel(b, uniformAt(b, 0.25), 50, false)
}

// --- unbounded noise: the band discards at most DefaultTailMass per row ---

func BenchmarkReconGaussS3K200Dense(b *testing.B) {
	benchReconKernel(b, noise.Gaussian{Sigma: 3}, 200, true)
}
func BenchmarkReconGaussS3K200Banded(b *testing.B) {
	benchReconKernel(b, noise.Gaussian{Sigma: 3}, 200, false)
}
func BenchmarkReconLaplaceB2K200Dense(b *testing.B) {
	benchReconKernel(b, noise.Laplace{B: 2}, 200, true)
}
func BenchmarkReconLaplaceB2K200Banded(b *testing.B) {
	benchReconKernel(b, noise.Laplace{B: 2}, 200, false)
}
