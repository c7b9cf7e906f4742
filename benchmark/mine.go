package main

import (
	"time"

	"ppdm"
)

// Inputs of the mine workload (the transaction count before run.scale).
const (
	basketTx      = 100_000 // transactions
	basketItems   = 40      // item universe
	ingestBatches = 10      // AddBatch calls of an op's ingest half
	flipProb      = 0.2     // BitFlip randomization of every item bit
	// staticMines is how many static mines an op makes after its ingest
	// half: the two halves then take about the same time.
	staticMines = 10
)

// mineState is the mine workload's set-up: the clean and the randomized
// baskets with both vertical indexes resident, the randomized rows as
// pre-parsed AddBatch-sized batches, and the mines every op must reproduce.
type mineState struct {
	clean, randomized *ppdm.Transactions
	bf                ppdm.BitFlip
	cfg               ppdm.MiningConfig
	batches           [][][]int

	exact                    []ppdm.Itemset // exact mining of the clean rows: the quality reference
	minedDigest, exactDigest string         // the two static mines
	stepDigests              []string       // the mine after each ingest step
	f1                       float64
	itemsets                 int
}

// mine is association mining over randomized baskets, 100k × 40 items
// randomized with BitFlip(0.2), at MinSupport 0.1 and MaxSize 3. An op has
// two halves. The ingest half starts an empty dataset and ingests the
// randomized rows in ten AddBatch calls, re-mining them with
// FrequentFromRandomized after each: AddBatch drops the vertical index, so
// every re-mine transposes the rows again. The static half then mines the
// resident, indexed datasets staticMines times, read-only: the randomized
// rows with FrequentFromRandomized (the channel-inverting estimator), then
// the clean rows with exact FrequentItemsets. An appendable index should
// move the ingest half and leave the static half flat.
//
// main_per_s is randomized static mines/s, second_per_s transactions
// ingested per second (re-mines included), op_p50_ms the median exact mine,
// and quality the F1 of the randomized mine against the exact mine of the
// clean rows.
func mine(r *run) error {
	st, err := setUp(r, func() (*mineState, error) { return newMineState(r) }, func(*mineState) {})
	if err != nil {
		return err
	}
	// The warm-up ingest gives the mines every later ingest must reproduce.
	steps, err := st.ingest(r, 0)
	if err != nil {
		return err
	}
	for _, s := range steps {
		st.stepDigests = append(st.stepDigests, s.digest)
	}
	r.check(st.stepDigests[len(steps)-1] == st.minedDigest, "the fully ingested dataset mines differently from the same rows mined in one piece")

	var mineTimes, exactTimes, ingestTimes, opTimes, tracedTimes, allocs []float64
	r.loop(func(i int) error {
		traced := r.trace && i%2 == 0
		t0, a0 := time.Now(), allocated()
		steps, err := st.ingest(r, r.opID(traced))
		if err != nil {
			return err
		}
		ingestDur := time.Since(t0)
		for k, s := range steps {
			r.check(s.digest == st.stepDigests[k], "op %d: the mine after batch %d differs from the warm-up ingest's", i, k)
		}

		var mined, exact []time.Duration
		for k := 0; k < staticMines; k++ {
			m, e, err := st.static(r, i, r.opID(traced))
			if err != nil {
				return err
			}
			mined, exact = append(mined, m), append(exact, e)
		}
		wall, alloc := time.Since(t0), allocated()-a0
		if traced {
			tracedTimes = append(tracedTimes, wall.Seconds())
			return nil
		}
		opTimes = append(opTimes, wall.Seconds())
		allocs = append(allocs, float64(alloc))
		ingestTimes = append(ingestTimes, ingestDur.Seconds())
		for k := range mined {
			mineTimes = append(mineTimes, mined[k].Seconds())
			exactTimes = append(exactTimes, exact[k].Seconds())
		}
		return nil
	})

	r.metrics["alloc_mb_per_op"] = mb(median(allocs))
	r.metrics["main_per_s"] = 1 / median(mineTimes)
	r.metrics["second_per_s"] = float64(st.randomized.N()) / median(ingestTimes)
	r.metrics["op_p50_ms"] = median(exactTimes) * 1000
	r.metrics["quality"] = st.f1
	if r.trace {
		const staticRoot, ingestRoot = "mine_static.op", "mine_ingest.op"
		r.checkCoverage(ingestRoot)
		for metric, name := range map[string]string{
			"assoc.add_batch_s":   "assoc.add_batch",
			"assoc.index_build_s": "assoc.index_build",
			"assoc.remine_s":      "assoc.mine",
		} {
			r.layerMedian(metric, ingestRoot, func(o opTrace) float64 { return o.self(name) })
		}
		r.layerMedian("assoc.mine_s", staticRoot, func(o opTrace) float64 { return o.self("assoc.mine") })
		r.layerMedian("assoc.exact_mine_s", staticRoot, func(o opTrace) float64 { return o.self("assoc.mine_exact") })
		r.metrics["assoc.itemsets"] = float64(st.itemsets)
		r.metrics["trace.overhead"] = median(tracedTimes) / median(opTimes)
	}
	return nil
}

// newMineState builds the baskets and both indexes, mines the clean rows
// exactly and the randomized rows in one piece, and cuts the randomized
// rows into pre-parsed batches.
func newMineState(r *run) (*mineState, error) {
	sd := seeds(r.seed, 2)
	clean, _, err := ppdm.GenerateBaskets(ppdm.BasketGenConfig{N: r.size(basketTx, 5000), Items: basketItems, Seed: sd[0]})
	if err != nil {
		return nil, err
	}
	bf, err := ppdm.NewBitFlip(flipProb)
	if err != nil {
		return nil, err
	}
	randomized, err := bf.Randomize(clean, sd[1])
	if err != nil {
		return nil, err
	}
	st := &mineState{
		clean:      clean,
		randomized: randomized,
		bf:         bf,
		cfg:        ppdm.MiningConfig{MinSupport: 0.1, MaxSize: 3, Workers: r.workers},
	}
	clean.Index(r.workers)
	randomized.Index(r.workers)
	if st.exact, err = ppdm.FrequentItemsets(clean, st.cfg); err != nil {
		return nil, err
	}
	mined, err := ppdm.FrequentFromRandomized(randomized, bf, st.cfg)
	if err != nil {
		return nil, err
	}
	st.minedDigest, st.exactDigest = itemsetsDigest(mined), itemsetsDigest(st.exact)
	st.f1, st.itemsets = f1(st.exact, mined), len(mined)

	n := randomized.N()
	per := (n + ingestBatches - 1) / ingestBatches
	for lo := 0; lo < n; lo += per {
		hi := min(lo+per, n)
		batch := make([][]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			var tx []int
			for it := 0; it < randomized.NumItems(); it++ {
				if randomized.Contains(i, it) {
					tx = append(tx, it)
				}
			}
			batch = append(batch, tx)
		}
		st.batches = append(st.batches, batch)
	}
	return st, nil
}

// static mines the resident datasets once each, checks both mines against
// set-up's, and returns how long each took. With op > 0 both get a span
// under a mine_static.op root.
func (st *mineState) static(r *run, i, op int) (mineDur, exactDur time.Duration, err error) {
	root := r.startSpan("mine_static.op", op, 0)
	t0 := time.Now()
	sp := r.startSpan("assoc.mine", op, root)
	mined, err := ppdm.FrequentFromRandomized(st.randomized, st.bf, st.cfg)
	if err != nil {
		return 0, 0, err
	}
	r.finishSpan(sp, map[string]float64{"itemsets": float64(len(mined))})
	mineDur = time.Since(t0)

	t1 := time.Now()
	sp = r.startSpan("assoc.mine_exact", op, root)
	exact, err := ppdm.FrequentItemsets(st.clean, st.cfg)
	if err != nil {
		return 0, 0, err
	}
	r.finishSpan(sp, nil)
	exactDur = time.Since(t1)
	r.finishSpan(root, nil)

	r.check(itemsetsDigest(mined) == st.minedDigest, "op %d: randomized mining differs from set-up's", i)
	r.check(itemsetsDigest(exact) == st.exactDigest, "op %d: exact mining differs from set-up's", i)
	return mineDur, exactDur, nil
}

// ingestStep is the re-mine after one AddBatch of an ingest half.
type ingestStep struct {
	mined  []ppdm.Itemset
	digest string
}

// ingest ingests every batch into a fresh dataset, mining after each. With
// op > 0 on a traced run it calls Index explicitly after each AddBatch, so
// the transpose gets its own span instead of hiding inside the mine.
func (st *mineState) ingest(r *run, op int) ([]ingestStep, error) {
	d, err := ppdm.NewTransactions(st.randomized.NumItems())
	if err != nil {
		return nil, err
	}
	root := r.startSpan("mine_ingest.op", op, 0)
	steps := make([]ingestStep, 0, len(st.batches))
	for _, batch := range st.batches {
		var s ingestStep
		sp := r.startSpan("assoc.add_batch", op, root)
		if err := d.AddBatch(batch); err != nil {
			return nil, err
		}
		r.finishSpan(sp, map[string]float64{"transactions": float64(len(batch))})

		if op > 0 {
			sp = r.startSpan("assoc.index_build", op, root)
			d.Index(r.workers)
			r.finishSpan(sp, nil)
		}
		sp = r.startSpan("assoc.mine", op, root)
		if s.mined, err = ppdm.FrequentFromRandomized(d, st.bf, st.cfg); err != nil {
			return nil, err
		}
		r.finishSpan(sp, map[string]float64{"itemsets": float64(len(s.mined))})
		steps = append(steps, s)
	}
	r.finishSpan(root, nil)
	for i := range steps {
		steps[i].digest = itemsetsDigest(steps[i].mined)
	}
	return steps, nil
}
