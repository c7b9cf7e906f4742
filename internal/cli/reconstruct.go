package cli

import (
	"flag"
	"fmt"
	"io"
	"text/tabwriter"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stats"
)

// Reconstruct demonstrates distribution reconstruction on a synthetic shape:
// it draws samples, perturbs them, reconstructs the distribution, and prints
// the original/perturbed/reconstructed series side by side.
//
// Usage: ppdm-reconstruct [-shape plateau|triangles|uniform] [-n 100000]
// [-family uniform|gaussian] [-privacy 1.0] [-k 20] [-algorithm bayes|em]
// [-seed 1] [-tail 0] [-workers 0]
func Reconstruct(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppdm-reconstruct", flag.ContinueOnError)
	fs.SetOutput(stderr)
	shape := fs.String("shape", "plateau", "original distribution: plateau|triangles|uniform")
	n := fs.Int("n", 100000, "number of samples")
	family := fs.String("family", "uniform", "noise family: uniform|gaussian")
	level := fs.Float64("privacy", 1.0, "privacy level as a fraction of the domain width")
	k := fs.Int("k", 20, "number of intervals")
	algorithm := fs.String("algorithm", "bayes", "reconstruction algorithm: bayes|em")
	seed := fs.Uint64("seed", 1, "seed")
	tail := fs.Float64("tail", 0, "noise tail mass the banded kernel may discard per matrix row for unbounded noise (0 = default 1e-12, negative = dense rows)")
	workers := fs.Int("workers", 0, "worker goroutines for the kernel precompute and iteration passes (0 = all cores); results are identical for any value")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n <= 0 {
		return fail(stderr, fmt.Errorf("-n must be positive, got %d", *n))
	}

	r := prng.New(*seed)
	original := make([]float64, *n)
	switch *shape {
	case "plateau":
		for i := range original {
			if r.Bernoulli(0.9) {
				original[i] = r.Uniform(25, 75)
			} else {
				original[i] = r.Uniform(0, 100)
			}
		}
	case "triangles":
		for i := range original {
			if r.Bernoulli(0.5) {
				original[i] = r.Triangular(5, 25, 45)
			} else {
				original[i] = r.Triangular(55, 75, 95)
			}
		}
	case "uniform":
		for i := range original {
			original[i] = r.Uniform(0, 100)
		}
	default:
		return fail(stderr, fmt.Errorf("unknown shape %q", *shape))
	}

	m, err := noise.ForPrivacy(*family, *level, 100, noise.DefaultConfidence)
	if err != nil {
		return fail(stderr, err)
	}
	var alg reconstruct.Algorithm
	switch *algorithm {
	case "bayes":
		alg = reconstruct.Bayes
	case "em":
		alg = reconstruct.EM
	default:
		return fail(stderr, fmt.Errorf("unknown reconstruction algorithm %q", *algorithm))
	}

	perturbed := make([]float64, *n)
	for i, v := range original {
		perturbed[i] = v + m.Sample(r)
	}
	part, err := reconstruct.NewPartition(0, 100, *k)
	if err != nil {
		return fail(stderr, err)
	}
	res, err := reconstruct.Reconstruct(perturbed, reconstruct.Config{Partition: part, Noise: m, Algorithm: alg, Epsilon: 1e-3, TailMass: *tail, Workers: *workers})
	if err != nil {
		return fail(stderr, err)
	}

	truth := part.Histogram(original)
	raw := part.Histogram(perturbed)
	fmt.Fprintf(stdout, "shape=%s n=%d noise=%s privacy=%.0f%% k=%d algorithm=%s\n",
		*shape, *n, *family, *level*100, *k, *algorithm)
	fmt.Fprintf(stdout, "converged=%v after %d iterations (delta %.2g)\n\n", res.Converged, res.Iters, res.Delta)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "midpoint\toriginal\tperturbed\treconstructed\tbar")
	for b := 0; b < part.K; b++ {
		bar := ""
		for j := 0; j < int(res.P[b]*200+0.5); j++ {
			bar += "#"
		}
		fmt.Fprintf(tw, "%.1f\t%.4f\t%.4f\t%.4f\t%s\n", part.Midpoint(b), truth[b], raw[b], res.P[b], bar)
	}
	if err := tw.Flush(); err != nil {
		return fail(stderr, err)
	}
	l1raw, _ := stats.L1(truth, raw)
	l1rec, _ := stats.L1(truth, res.P)
	fmt.Fprintf(stdout, "\nL1(original, perturbed)     = %.4f\n", l1raw)
	fmt.Fprintf(stdout, "L1(original, reconstructed) = %.4f\n", l1rec)
	return 0
}
