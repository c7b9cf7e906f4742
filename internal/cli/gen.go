package cli

import (
	"flag"
	"fmt"
	"io"

	"ppdm/internal/noise"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// Gen generates synthetic benchmark data, optionally perturbed. It pipes
// record batches straight from the generator (and perturber) to the
// output, never holding the full table, so peak memory is O(batch) however
// large -n is. The output is plain CSV; -stream adds a gzip layer (the
// batch stream ppdm-train -stream and ppdm-serve read), and `gunzip` of it
// is byte-identical to the plain CSV for the same seeds.
//
// Usage: ppdm-gen [-fn F2] [-n 100000] [-seed 1] [-label-noise 0]
// [-perturb uniform|gaussian] [-privacy 1.0] [-conf 0.95] [-noise-seed 2]
// [-workers 0] [-stream] [-batch 8192] [-o file.csv]
func Gen(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppdm-gen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fnName := fs.String("fn", "F1", "classification function F1..F10")
	n := fs.Int("n", 100000, "number of records")
	seed := fs.Uint64("seed", 1, "generation seed")
	labelNoise := fs.Float64("label-noise", 0, "probability of flipping each class label")
	family := fs.String("perturb", "", "perturb all attributes with this noise family (uniform|gaussian); empty = clean data")
	level := fs.Float64("privacy", 1.0, "privacy level as a fraction of each attribute's domain width")
	conf := fs.Float64("conf", noise.DefaultConfidence, "confidence level of the privacy guarantee")
	noiseSeed := fs.Uint64("noise-seed", 2, "perturbation seed")
	workers := fs.Int("workers", 0, "worker goroutines for generation and perturbation (0 = all cores); output is identical for any value")
	streamMode := fs.Bool("stream", false, "gzip the CSV output (a gzipped batch stream, as ppdm-train -stream reads)")
	batch := fs.Int("batch", 0, fmt.Sprintf("records per batch (0 = %d); output is identical for any value", stream.DefaultBatchSize))
	out := fs.String("o", "-", "output file (\"-\" = stdout)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	fn, err := synth.ParseFunction(*fnName)
	if err != nil {
		return fail(stderr, err)
	}
	cfg := synth.Config{Function: fn, N: *n, Seed: *seed, LabelNoise: *labelNoise, Workers: *workers}

	var models map[int]noise.Model
	if *family != "" {
		models, err = noise.ModelsForAllAttrs(synth.Schema(), *family, *level, *conf)
		if err != nil {
			return fail(stderr, err)
		}
	}

	var src stream.Source
	src, err = synth.Stream(cfg, *batch)
	if err != nil {
		return fail(stderr, err)
	}
	if models != nil {
		src, err = noise.PerturbStream(src, models, *noiseSeed, *workers)
		if err != nil {
			return fail(stderr, err)
		}
	}
	written, err := writeRecordStream(src, *out, *streamMode, stdout)
	if err != nil {
		return fail(stderr, err)
	}
	if *out != "-" && *out != "" {
		if *streamMode {
			fmt.Fprintf(stderr, "streamed %d records to %s (gzipped batches)\n", written, *out)
		} else {
			fmt.Fprintf(stderr, "wrote %d records to %s\n", written, *out)
		}
	}
	return 0
}
