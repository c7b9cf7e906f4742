package main

import (
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"time"

	"ppdm"
	"ppdm/internal/bayes"
	"ppdm/internal/core"
	"ppdm/internal/stream"
)

// Input sizes of the train workload (before run.scale).
const (
	streamRecords = 100_000 // records per streamed training
	localRecords  = 20_000  // rows of each in-memory table
	heldOut       = 10_000  // clean test records every model is scored on
	// localTables is how many tables the in-memory half of an op trains on,
	// each its own draw from the seed, so that its cost and accuracy average
	// over several draws instead of following one draw's tree shape.
	localTables = 4
)

// trainState is the train workload's set-up: the inputs of the streamed
// half and of the in-memory half of an op, the held-out test table, and the
// digests of the warm-up op's models that every later op must reproduce.
type trainState struct {
	// Streamed half: the seeds regenerate the same perturbed stream for
	// every op.
	streamModels       map[int]ppdm.NoiseModel
	n                  int
	genSeed, noiseSeed uint64
	treeCfg            core.Config
	nbCfg              bayes.Config

	// In-memory half.
	tables               []*ppdm.Table
	localModels          map[int]ppdm.NoiseModel
	localCfg, byClassCfg core.Config

	test *ppdm.Table
	want trainDigests
}

// trainOp is what one op trained, and how long its parts took.
type trainOp struct {
	tree           *core.Classifier
	nb             *bayes.Classifier
	local, byClass []*core.Classifier // table by table
	// treeDur and nbDur are set by untraced ops only: a traced op splits
	// the streamed training into the calls TrainStream makes.
	treeDur, nbDur, localDur time.Duration
}

// trainDigests fingerprint an op's models (sha256 of Save).
type trainDigests struct {
	tree, nb       string
	local, byClass []string
}

// train is the paper's randomize → reconstruct → learn path, out of core and
// in memory. The streamed half of an op is the collector path: it generates
// 100k F2 records as a stream, perturbs them in flight with gaussian noise
// at 100% privacy, trains the ByClass tree with TrainStream (spill,
// reconstruct, grow) and then naive Bayes from the same stream. Spilling and
// merging dominate it. The in-memory half trains Local, which
// re-reconstructs at every large node, and then ByClass, on each of
// localTables 20k F2 tables perturbed with uniform noise at 100% privacy.
// Reconstruction dominates it, with no spill and no stream codec. Every op
// runs both halves, so each is sampled across the whole window.
//
// main_per_s is the streamed tree's records/s, second_per_s Local's
// records/s, op_p50_ms the median streamed naive-Bayes training, and quality
// the mean held-out accuracy of every model an op trains.
func train(r *run) error {
	sd := seeds(r.seed, 3+2*localTables)
	st, err := setUp(r, func() (*trainState, error) { return newTrainState(r, sd) }, func(*trainState) {})
	if err != nil {
		return err
	}
	// The warm-up op fills the shared weight cache and trains the models
	// every later op must reproduce.
	warm, err := st.op(r, false)
	if err != nil {
		return err
	}
	if st.want, err = warm.digests(); err != nil {
		return err
	}

	var (
		treeTimes, nbTimes, localTimes, opTimes, tracedTimes, allocs []float64
		last                                                         trainOp
	)
	r.loop(func(i int) error {
		// A traced run alternates traced and untraced ops, so the two can
		// be compared for the tracing overhead.
		traced := r.trace && i%2 == 0
		t0, a0 := time.Now(), allocated()
		o, err := st.op(r, traced)
		if err != nil {
			return err
		}
		wall, alloc := time.Since(t0), allocated()-a0
		if traced {
			tracedTimes = append(tracedTimes, wall.Seconds())
		} else {
			allocs = append(allocs, float64(alloc))
			treeTimes = append(treeTimes, o.treeDur.Seconds())
			nbTimes = append(nbTimes, o.nbDur.Seconds())
			localTimes = append(localTimes, o.localDur.Seconds())
			opTimes = append(opTimes, wall.Seconds())
		}
		last = o
		got, err := o.digests()
		if err != nil {
			return err
		}
		r.check(got.tree == st.want.tree, "op %d: tree model differs from the warm-up op's", i)
		r.check(got.nb == st.want.nb, "op %d: naive Bayes model differs from the warm-up op's", i)
		for k := range got.local {
			r.check(got.local[k] == st.want.local[k], "op %d: Local model of table %d differs from the warm-up op's", i, k)
			r.check(got.byClass[k] == st.want.byClass[k], "op %d: ByClass model of table %d differs from the warm-up op's", i, k)
		}
		return nil
	})
	if last.tree == nil {
		return errNoOp
	}

	models := []interface {
		Evaluate(*ppdm.Table) (ppdm.Evaluation, error)
	}{last.tree, last.nb}
	for k := range last.local {
		models = append(models, last.local[k], last.byClass[k])
	}
	accuracy := 0.0
	for _, m := range models {
		eval, err := m.Evaluate(st.test)
		if err != nil {
			return err
		}
		accuracy += eval.Accuracy / float64(len(models))
	}
	nbEval, err := last.nb.Evaluate(st.test)
	if err != nil {
		return err
	}
	localRecords := 0
	for _, t := range st.tables {
		localRecords += t.N()
	}
	r.metrics["alloc_mb_per_op"] = mb(median(allocs))
	r.metrics["main_per_s"] = float64(st.n) / median(treeTimes)
	r.metrics["second_per_s"] = float64(localRecords) / median(localTimes)
	r.metrics["op_p50_ms"] = median(nbTimes) * 1000
	r.metrics["quality"] = accuracy
	r.metrics["bayes.accuracy"] = nbEval.Accuracy
	if !r.trace {
		return nil
	}

	const streamRoot, localRoot = "train_stream.op", "train_local.op"
	r.checkCoverage(streamRoot)
	for metric, name := range map[string]string{
		"synth.next_s":      "synth.next",
		"noise.next_s":      "noise.next",
		"core.spill_s":      "core.spill_shard",
		"core.merge_s":      "core.merge_shard_spills",
		"bayes.add_batch_s": "bayes.add_batch",
		"bayes.finalize_s":  "bayes.finalize",
	} {
		r.layerMedian(metric, streamRoot, func(o opTrace) float64 { return o.self(name) })
	}
	r.layerMedian("core.spill_bytes", streamRoot, func(o opTrace) float64 { return o.counter("core.spill_shard", "bytes") })
	r.layerMedian("core.train_byclass_s", localRoot, func(o opTrace) float64 { return o.self("core.train_byclass") })
	r.metrics["tree.nodes"] = float64(last.local[0].Tree.NodeCount())
	r.metrics["tree.depth"] = float64(last.local[0].Tree.Depth())
	r.layerMedian("reconstruct.cache_hits", localRoot, func(o opTrace) float64 { return o.root.Counters["cache_hits"] })
	r.layerMedian("reconstruct.cache_misses", localRoot, func(o opTrace) float64 { return o.root.Counters["cache_misses"] })
	r.metrics["trace.overhead"] = median(tracedTimes) / median(opTimes)
	return r.probeReconstruction(st.tables[0], last.local[0].Partitions, st.localModels)
}

func newTrainState(r *run, sd []uint64) (*trainState, error) {
	streamModels, err := ppdm.ModelsForAllAttrs(ppdm.BenchmarkSchema(), "gaussian", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		return nil, err
	}
	localModels, err := ppdm.ModelsForAllAttrs(ppdm.BenchmarkSchema(), "uniform", 1.0, ppdm.DefaultConfidence)
	if err != nil {
		return nil, err
	}
	test, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: r.size(heldOut, 500), Seed: sd[0], Workers: r.workers})
	if err != nil {
		return nil, err
	}
	st := &trainState{
		streamModels: streamModels,
		n:            r.size(streamRecords, 2000),
		genSeed:      sd[1],
		noiseSeed:    sd[2],
		treeCfg:      core.Config{Mode: core.ByClass, Noise: streamModels, Workers: r.workers, SpillDir: r.dir},
		nbCfg:        bayes.Config{Mode: core.ByClass, Noise: streamModels},
		localModels:  localModels,
		localCfg:     core.Config{Mode: core.Local, Noise: localModels, Workers: r.workers},
		byClassCfg:   core.Config{Mode: core.ByClass, Noise: localModels, Workers: r.workers},
		test:         test,
	}
	for k := 0; k < localTables; k++ {
		clean, err := ppdm.Generate(ppdm.GenConfig{Function: ppdm.F2, N: r.size(localRecords, 2000), Seed: sd[3+2*k], Workers: r.workers})
		if err != nil {
			return nil, err
		}
		table, err := ppdm.PerturbTableWorkers(clean, localModels, sd[4+2*k], r.workers)
		if err != nil {
			return nil, err
		}
		st.tables = append(st.tables, table)
	}
	return st, nil
}

// op runs the streamed half and then the in-memory half. A traced op gives
// each half an op ID of its own and a span around every call it makes.
func (st *trainState) op(r *run, traced bool) (trainOp, error) {
	var (
		o   trainOp
		err error
	)
	if traced {
		o.tree, o.nb, err = st.tracedStream(r, r.opID(true))
	} else {
		o.tree, o.nb, o.treeDur, o.nbDur, err = st.stream(r)
	}
	if err != nil {
		return o, err
	}
	return o, st.inMemory(r, r.opID(traced), &o)
}

// source regenerates the op's perturbed record stream. With op > 0 on a
// traced run both stages are wrapped in tracedSource, the perturbation's
// span under parent.
func (st *trainState) source(r *run, op, parent int) (stream.Source, error) {
	gen, err := ppdm.GenerateStream(ppdm.GenConfig{Function: ppdm.F2, N: st.n, Seed: st.genSeed, Workers: r.workers}, 0)
	if err != nil {
		return nil, err
	}
	if r.tr == nil || op == 0 {
		return ppdm.PerturbStream(gen, st.streamModels, st.noiseSeed, r.workers)
	}
	inner := &tracedSource{Source: gen, tr: r.tr, name: "synth.next", op: op}
	perturbed, err := ppdm.PerturbStream(inner, st.streamModels, st.noiseSeed, r.workers)
	if err != nil {
		return nil, err
	}
	outer := &tracedSource{Source: perturbed, tr: r.tr, name: "noise.next", op: op, parent: parent}
	inner.outer = outer
	return outer, nil
}

// stream is the untraced streamed half, through the public entry points.
func (st *trainState) stream(r *run) (*core.Classifier, *bayes.Classifier, time.Duration, time.Duration, error) {
	t0 := time.Now()
	src, err := st.source(r, 0, 0)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	tree, err := ppdm.TrainStream(src, st.treeCfg)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	treeDur := time.Since(t0)

	t1 := time.Now()
	if src, err = st.source(r, 0, 0); err != nil {
		return nil, nil, 0, 0, err
	}
	nb, err := ppdm.TrainNaiveBayesStream(src, st.nbCfg)
	if err != nil {
		return nil, nil, 0, 0, err
	}
	return tree, nb, treeDur, time.Since(t1), nil
}

// tracedStream is the streamed half split into the calls TrainStream and
// TrainNaiveBayesStream make, with a span around each: SpillShard and
// MergeShardSpills for the tree (one shard merges into exactly the
// TrainStream model), and NewTrainStats, AddBatch per batch and Finalize
// for naive Bayes.
func (st *trainState) tracedStream(r *run, op int) (*core.Classifier, *bayes.Classifier, error) {
	tr := r.tr
	cache0 := ppdm.SharedWeightCacheStats()
	root := tr.start("train_stream.op", op, 0)

	spill := tr.start("core.spill_shard", op, root)
	src, err := st.source(r, op, spill)
	if err != nil {
		return nil, nil, err
	}
	shard, err := core.SpillShard(src, st.treeCfg)
	if err != nil {
		return nil, nil, err
	}
	defer shard.Close()
	tr.finish(spill, map[string]float64{"records": float64(shard.N()), "bytes": float64(dirBytes(r.dir))})

	merge := tr.start("core.merge_shard_spills", op, root)
	tree, err := core.MergeShardSpills([]*core.ShardSpill{shard}, st.treeCfg)
	if err != nil {
		return nil, nil, err
	}
	tr.finish(merge, map[string]float64{"nodes": float64(tree.Tree.NodeCount()), "depth": float64(tree.Tree.Depth())})

	if src, err = st.source(r, op, root); err != nil {
		return nil, nil, err
	}
	stats, err := bayes.NewTrainStats(src.Schema(), st.nbCfg)
	if err != nil {
		return nil, nil, err
	}
	for {
		b, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		add := tr.start("bayes.add_batch", op, root)
		err = stats.AddBatch(b)
		tr.finish(add, map[string]float64{"records": float64(b.N())})
		if err != nil {
			return nil, nil, err
		}
	}
	fin := tr.start("bayes.finalize", op, root)
	nb, err := stats.Finalize()
	tr.finish(fin, nil)
	if err != nil {
		return nil, nil, err
	}

	cache1 := ppdm.SharedWeightCacheStats()
	tr.finish(root, map[string]float64{
		"cache_hits":   float64(cache1.Hits - cache0.Hits),
		"cache_misses": float64(cache1.Misses - cache0.Misses),
	})
	return tree, nb, nil
}

// inMemory is the in-memory half: Local and then ByClass on each table.
// With op > 0 each call gets a span under a train_local.op root.
func (st *trainState) inMemory(r *run, op int, o *trainOp) error {
	var (
		root   int
		cache0 ppdm.WeightCacheStats
	)
	if op > 0 {
		cache0 = ppdm.SharedWeightCacheStats()
		root = r.tr.start("train_local.op", op, 0)
	}
	for _, table := range st.tables {
		t0 := time.Now()
		sp := r.startSpan("core.train_local", op, root)
		local, err := ppdm.Train(table, st.localCfg)
		if err != nil {
			return err
		}
		r.finishSpan(sp, nil)
		o.localDur += time.Since(t0)

		sp = r.startSpan("core.train_byclass", op, root)
		byClass, err := ppdm.Train(table, st.byClassCfg)
		if err != nil {
			return err
		}
		r.finishSpan(sp, nil)
		o.local = append(o.local, local)
		o.byClass = append(o.byClass, byClass)
	}
	if op > 0 {
		cache1 := ppdm.SharedWeightCacheStats()
		r.tr.finish(root, map[string]float64{
			"cache_hits":   float64(cache1.Hits - cache0.Hits),
			"cache_misses": float64(cache1.Misses - cache0.Misses),
		})
	}
	return nil
}

// digests fingerprints every model of the op.
func (o trainOp) digests() (trainDigests, error) {
	var (
		d   trainDigests
		err error
	)
	if d.tree, err = digest(o.tree.Save); err != nil {
		return d, err
	}
	if d.nb, err = digest(o.nb.Save); err != nil {
		return d, err
	}
	for k := range o.local {
		ld, err := digest(o.local[k].Save)
		if err != nil {
			return d, err
		}
		bd, err := digest(o.byClass[k].Save)
		if err != nil {
			return d, err
		}
		d.local, d.byClass = append(d.local, ld), append(d.byClass, bd)
	}
	return d, nil
}

// probeReconstruction reconstructs every perturbed attribute × class column
// of t on the trained partitions, with the training epsilon and a fresh
// weight cache, and records the time, the iterations and the number of
// reconstructions that stopped at MaxIters.
func (r *run) probeReconstruction(t *ppdm.Table, parts []ppdm.Partition, models map[int]ppdm.NoiseModel) error {
	cache := ppdm.NewWeightCache(0)
	t0 := time.Now()
	sp := r.tr.start("reconstruct.probe", 0, 0)
	iters, unconverged := 0, 0
	for j := range parts {
		m, ok := models[j]
		if !ok {
			continue
		}
		for c := 0; c < t.Schema().NumClasses(); c++ {
			values, _ := t.ColumnForClass(j, c)
			if len(values) == 0 {
				continue
			}
			res, err := ppdm.Reconstruct(values, ppdm.ReconstructConfig{
				Partition: parts[j],
				Noise:     m,
				Epsilon:   core.DefaultReconEpsilon,
				Workers:   r.workers,
				Cache:     cache,
			})
			if err != nil {
				return fmt.Errorf("probing attribute %d class %d: %w", j, c, err)
			}
			iters += res.Iters
			if !res.Converged {
				unconverged++
			}
		}
	}
	r.tr.finish(sp, map[string]float64{"iters": float64(iters), "unconverged": float64(unconverged)})
	r.metrics["reconstruct.probe_s"] = time.Since(t0).Seconds()
	r.metrics["reconstruct.iters"] = float64(iters)
	r.metrics["reconstruct.unconverged"] = float64(unconverged)
	return nil
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			if info, err := d.Info(); err == nil {
				total += info.Size()
			}
		}
		return nil
	})
	return total
}
