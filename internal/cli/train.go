package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"

	"ppdm/internal/bayes"
	"ppdm/internal/cluster"
	"ppdm/internal/core"
	"ppdm/internal/dataset"
	"ppdm/internal/noise"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stream"
	"ppdm/internal/synth"
)

// Train trains a privacy-preserving classifier on a benchmark training set
// (as written by ppdm-gen) and evaluates it on a clean test set.
//
// For the reconstruction modes the noise flags must describe how the
// training file was perturbed.
//
// With -stream the training input is a gzipped record-batch file (or stdin
// for "-") as written by `ppdm-gen -stream`; it is consumed in bounded
// memory, so the training set may be larger than memory. Naive Bayes trains
// in one pass over per-class interval statistics; the decision tree builds
// SPRINT-style columnar attribute lists in disk-spilled segments and grows
// from them through a bounded segment cache, emitting a model byte-identical
// to the in-memory path. Every mode except local streams (local
// re-reconstructs from raw node-local values and needs the materialized
// table).
//
// The -test file is evaluated batch by batch in every mode: a path ending
// in .gz (or "-" for stdin) is read as a gzipped batch stream, any other
// path as plain CSV.
//
// With -shards N the streamed training input is dealt across N logical
// shards (cluster.UnitLen record units, round-robin), trained per shard in
// parallel, and merged — the model is byte-identical to single-node
// training at any shard count. Naive-Bayes shards can run on remote worker
// processes (-shard-workers, comma-separated base URLs of ppdm-train
// -shard-worker instances); tree shards always run in process, spilling
// columns to local disk.
//
// Usage: ppdm-train -train train.csv -test test.csv [-mode byclass]
// [-family gaussian] [-privacy 1.0] [-conf 0.95] [-intervals 50]
// [-algorithm bayes|em] [-learner tree|nb] [-workers 0]
// [-stream] [-batch 8192] [-shards 0] [-shard-workers url,url] [-print-tree]
//
// Worker mode: ppdm-train -shard-worker [-addr 127.0.0.1:9090] serves the
// gzipped-JSON shard-training protocol over HTTP until interrupted.
func Train(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ppdm-train", flag.ContinueOnError)
	fs.SetOutput(stderr)
	trainPath := fs.String("train", "", "training CSV, or a gzipped batch stream with -stream (perturbed for all modes except original)")
	testPath := fs.String("test", "", "clean test CSV (.gz = gzipped batch stream)")
	modeName := fs.String("mode", "byclass", "training mode: original|randomized|global|byclass|local")
	family := fs.String("family", "gaussian", "noise family the training data was perturbed with")
	level := fs.Float64("privacy", 1.0, "privacy level the training data was perturbed at")
	conf := fs.Float64("conf", noise.DefaultConfidence, "confidence level of the privacy guarantee")
	intervals := fs.Int("intervals", 0, "intervals per attribute (0 = default)")
	algorithm := fs.String("algorithm", "bayes", "reconstruction algorithm: bayes|em")
	learner := fs.String("learner", "tree", "learner: tree|nb (naive Bayes supports original/randomized/byclass)")
	workers := fs.Int("workers", 0, "worker goroutines for training (0 = all cores); the trained model is identical for any value")
	streamMode := fs.Bool("stream", false, "consume -train as a gzipped record-batch stream in bounded memory (tree learner spills columnar attribute lists to disk; all modes except local)")
	batch := fs.Int("batch", 0, fmt.Sprintf("records per streamed batch (0 = %d)", stream.DefaultBatchSize))
	printTree := fs.Bool("print-tree", false, "print the trained decision tree")
	savePath := fs.String("save", "", "write the trained model (tree or naive Bayes) as JSON to this file, crash-safely (temp file + rename)")
	shards := fs.Int("shards", 0, "deal the training stream across this many logical shards and merge (0 = single-node; requires -stream; the model is byte-identical at any shard count)")
	shardWorkers := fs.String("shard-workers", "", "comma-separated base URLs of remote shard workers (ppdm-train -shard-worker) for naive-Bayes shards")
	shardWorker := fs.Bool("shard-worker", false, "run as a shard-training worker: serve the shard protocol on -addr instead of training locally")
	addr := fs.String("addr", "127.0.0.1:9090", "listen address for -shard-worker mode")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *shardWorker {
		return runShardWorker(*addr, stdout, stderr)
	}
	if *trainPath == "" || *testPath == "" {
		return fail(stderr, fmt.Errorf("both -train and -test are required"))
	}
	mode, err := core.ParseMode(*modeName)
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

	var models map[int]noise.Model
	if mode.NeedsNoise() {
		models, err = noise.ModelsForAllAttrs(synth.Schema(), *family, *level, *conf)
		if err != nil {
			return fail(stderr, err)
		}
	}

	workerURLs := splitURLs(*shardWorkers)
	nShards := *shards
	if nShards == 0 && len(workerURLs) > 0 {
		nShards = len(workerURLs)
	}
	if nShards > 0 && !*streamMode {
		return fail(stderr, fmt.Errorf("-shards requires -stream (shards are dealt from the record stream)"))
	}

	if *streamMode {
		switch *learner {
		case "nb":
			var opts *cluster.Options
			if nShards > 0 {
				opts = &cluster.Options{
					Shards:      nShards,
					WorkerURLs:  workerURLs,
					WorkerQuery: shardQuery(*modeName, *family, *level, *conf, *intervals, *algorithm),
				}
			}
			return trainStreamedNB(*trainPath, *testPath, *savePath, mode, alg, models, *intervals, *batch, opts, stdout, stderr)
		case "tree":
			if len(workerURLs) > 0 {
				return fail(stderr, fmt.Errorf("-shard-workers applies to the nb learner only (tree shards spill columns to local disk)"))
			}
			cfg := core.Config{Mode: mode, Intervals: *intervals, ReconAlgorithm: alg, Noise: models, Workers: *workers}
			return trainStreamedTree(*trainPath, *testPath, *savePath, cfg, *batch, nShards, *printTree, stdout, stderr)
		default:
			return fail(stderr, fmt.Errorf("unknown learner %q (want tree or nb)", *learner))
		}
	}

	trainTable, err := readBenchmarkCSV(*trainPath)
	if err != nil {
		return fail(stderr, err)
	}

	var clf evaluator
	var treeClf *core.Classifier
	var save func(w io.Writer) error
	switch *learner {
	case "tree":
		cfg := core.Config{Mode: mode, Intervals: *intervals, ReconAlgorithm: alg, Noise: models, Workers: *workers}
		treeClf, err = core.Train(trainTable, cfg)
		if err != nil {
			return fail(stderr, err)
		}
		clf, save = treeClf, treeClf.Save
	case "nb":
		cfg := bayes.Config{Mode: mode, Intervals: *intervals, ReconAlgorithm: alg, Noise: models}
		nb, err := bayes.Train(trainTable, cfg)
		if err != nil {
			return fail(stderr, err)
		}
		clf, save = nb, nb.Save
	default:
		return fail(stderr, fmt.Errorf("unknown learner %q (want tree or nb)", *learner))
	}
	ev, testN, err := evaluateTestInput(clf, *testPath, *batch)
	if err != nil {
		return fail(stderr, err)
	}

	printEvaluation(stdout, *learner, mode, trainTable.Schema(),
		trainTable.N(), testN, *trainPath, *testPath, ev, treeClf, *printTree)

	if *savePath != "" {
		if err := saveModel(*savePath, save, stderr); err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

// evaluator is the surface shared by the tree and naive-Bayes classifiers
// that the test-set evaluation needs.
type evaluator interface {
	EvaluateStream(src stream.Source) (core.Evaluation, error)
}

// evaluateTestInput evaluates a trained classifier on the test input batch
// by batch: a gzipped record stream when the path ends in ".gz" (or is "-"
// for stdin), plain CSV otherwise. It returns the evaluation and the number
// of test records.
func evaluateTestInput(clf evaluator, testPath string, batch int) (core.Evaluation, int, error) {
	gzipped := strings.HasSuffix(testPath, ".gz") || testPath == "-"
	src, closeTest, err := openRecordStream(testPath, gzipped, batch)
	if err != nil {
		return core.Evaluation{}, 0, err
	}
	ev, err := clf.EvaluateStream(src)
	if cerr := closeTest(); err == nil {
		err = cerr
	}
	if err != nil {
		return core.Evaluation{}, 0, err
	}
	return ev, ev.N, nil
}

// saveModel writes a trained model as JSON to path crash-safely
// (core.WriteFileAtomic: temp file in the same directory + rename), so the
// serving daemon can never load a truncated document, and reports to
// stderr.
func saveModel(path string, save func(w io.Writer) error, stderr io.Writer) error {
	if err := core.WriteFileAtomic(path, save); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "saved model to %s\n", path)
	return nil
}

// trainStreamedTree is the bounded-memory decision-tree path: the training
// stream is spilled into columnar attribute-list segments on disk and the
// tree grows from them through a bounded segment cache, so the table is
// never materialized and the model matches the in-memory path byte for
// byte.
func trainStreamedTree(trainPath, testPath, savePath string, cfg core.Config, batch, shards int,
	printTree bool, stdout, stderr io.Writer) int {
	src, closeTrain, err := openRecordStream(trainPath, true, batch)
	if err != nil {
		return fail(stderr, err)
	}
	label := "tree (streamed)"
	var clf *core.Classifier
	if shards > 0 {
		label = fmt.Sprintf("tree (streamed, %d shards)", shards)
		clf, err = cluster.TrainTree(src, cfg, cluster.Options{Shards: shards})
	} else {
		clf, err = core.TrainStream(src, cfg)
	}
	if cerr := closeTrain(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(stderr, err)
	}
	trainN := src.N()

	ev, testN, err := evaluateTestInput(clf, testPath, batch)
	if err != nil {
		return fail(stderr, err)
	}
	printEvaluation(stdout, label, cfg.Mode, synth.Schema(), trainN, testN, trainPath, testPath, ev, clf, printTree)
	if savePath != "" {
		if err := saveModel(savePath, clf.Save, stderr); err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

// trainStreamedNB is the bounded-memory naive-Bayes path: the training
// stream is consumed batch by batch into sufficient statistics, so only
// O(batch + classes × attributes × intervals) memory is held at once.
func trainStreamedNB(trainPath, testPath, savePath string, mode core.Mode, alg reconstruct.Algorithm,
	models map[int]noise.Model, intervals, batch int, opts *cluster.Options, stdout, stderr io.Writer) int {
	src, closeTrain, err := openRecordStream(trainPath, true, batch)
	if err != nil {
		return fail(stderr, err)
	}
	cfg := bayes.Config{Mode: mode, Intervals: intervals, ReconAlgorithm: alg, Noise: models}
	label := "nb (streamed)"
	var nb *bayes.Classifier
	if opts != nil {
		if len(opts.WorkerURLs) > 0 {
			label = fmt.Sprintf("nb (streamed, %d shards on %d workers)", opts.Shards, len(opts.WorkerURLs))
		} else {
			label = fmt.Sprintf("nb (streamed, %d shards)", opts.Shards)
		}
		nb, err = cluster.TrainNaiveBayes(src, cfg, *opts)
	} else {
		nb, err = bayes.TrainStream(src, cfg)
	}
	if cerr := closeTrain(); err == nil {
		err = cerr
	}
	if err != nil {
		return fail(stderr, err)
	}
	trainN := src.N()

	ev, testN, err := evaluateTestInput(nb, testPath, batch)
	if err != nil {
		return fail(stderr, err)
	}
	printEvaluation(stdout, label, mode, synth.Schema(), trainN, testN, trainPath, testPath, ev, nil, false)
	if savePath != "" {
		if err := saveModel(savePath, nb.Save, stderr); err != nil {
			return fail(stderr, err)
		}
	}
	return 0
}

// printEvaluation renders the shared result block of ppdm-train.
func printEvaluation(stdout io.Writer, learner string, mode core.Mode, s *dataset.Schema,
	trainN, testN int, trainPath, testPath string, ev core.Evaluation, treeClf *core.Classifier, printTree bool) {
	fmt.Fprintf(stdout, "learner:    %s\n", learner)
	fmt.Fprintf(stdout, "mode:       %s\n", mode)
	fmt.Fprintf(stdout, "train:      %d records (%s)\n", trainN, trainPath)
	fmt.Fprintf(stdout, "test:       %d records (%s)\n", testN, testPath)
	fmt.Fprintf(stdout, "accuracy:   %.2f%% (%d/%d)\n", 100*ev.Accuracy, ev.Correct, ev.N)
	if treeClf != nil {
		fmt.Fprintf(stdout, "tree size:  %d nodes, %d leaves, depth %d\n",
			treeClf.Tree.NodeCount(), treeClf.Tree.LeafCount(), treeClf.Tree.Depth())
	}
	fmt.Fprintln(stdout, "confusion matrix (rows = actual, cols = predicted):")
	for a, row := range ev.Confusion {
		fmt.Fprintf(stdout, "  %s:", s.Classes[a])
		for _, c := range row {
			fmt.Fprintf(stdout, " %6d", c)
		}
		fmt.Fprintln(stdout)
	}
	if printTree && treeClf != nil {
		names := make([]string, s.NumAttrs())
		for i, a := range s.Attrs {
			names[i] = a.Name
		}
		fmt.Fprintln(stdout, "\ntree:")
		fmt.Fprint(stdout, treeClf.Tree.Render(names, s.Classes))
	}
}
