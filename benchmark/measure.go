package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"ppdm"
	"ppdm/internal/stats"
)

// An untraced run sets its workload up at least setupMin times, and again,
// up to setupMax times, while its set-ups so far took less than
// setupBudget; setup_s is the median, so one slow set-up does not move it.
// A short set-up is measured more often because it is noisier.
const (
	setupMin    = 5
	setupMax    = 15
	setupBudget = 3 * time.Second
)

// setUp builds the workload's state as often as the set-up rule above says
// (once when tracing), releasing all but the last, and records the median
// as setup_s. Set-up covers generating inputs, building what the workload
// keeps resident (vertical indexes, a running server with a warm cache),
// so work moved out of the timed ops shows here. The untimed warm-up op that
// fills the process-wide caches runs once, after set-up: its later
// repetitions would find those caches full.
func setUp[T any](r *run, build func() (T, error), release func(T)) (T, error) {
	var (
		st          T
		times       []float64
		spent       time.Duration
		least, most = setupMin, setupMax
	)
	if r.trace {
		least, most = 1, 1
	}
	for i := 0; i < most && (i < least || spent < setupBudget); i++ {
		if i > 0 {
			release(st)
			var zero T
			st = zero
			runtime.GC()
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return st, fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
		st = s
	}
	r.metrics["setup_s"] = median(times)
	return st, nil
}

// errNoOp reports a workload whose every op failed.
var errNoOp = errors.New("every op failed")

// minOps is the fewest timed ops a run makes, however long each takes.
const minOps = 3

// loop calls op(i) for i = 0, 1, … until the timed window is spent. It runs
// at least minOps ops and starts no op that the previous op's duration says
// would overrun the window. Every op starts from a collected heap, so that
// when a collection falls inside an op depends on the op's own allocation,
// not on what the ops before it left behind; the allocation itself is
// alloc_mb_per_op. A failing op counts as failed and the loop goes on.
func (r *run) loop(op func(i int) error) {
	start := time.Now()
	var last time.Duration
	for i := 0; i < minOps || time.Since(start)+last <= r.budget; i++ {
		t0 := time.Now()
		runtime.GC()
		err := op(i)
		last = time.Since(t0)
		r.attempted++
		if err != nil {
			r.failed++
			fmt.Fprintf(os.Stderr, "benchmark: op %d failed: %v\n", i, err)
		}
	}
}

// median of xs (NaN when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is stats.Quantile, NaN when xs is empty; execute refuses to
// report a metric that is not finite.
func quantile(xs []float64, q float64) float64 {
	v, err := stats.Quantile(xs, q)
	if err != nil {
		return math.NaN()
	}
	return v
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// seeds draws n sub-seeds from the run's seed, one per input, in a fixed
// order: the same -seed always yields the same inputs.
func seeds(seed uint64, n int) []uint64 {
	rng := ppdm.NewRand(seed)
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// digest is the hex sha256 of what save writes: two models are the same
// model exactly when their saved documents have the same digest.
func digest(save func(io.Writer) error) (string, error) {
	h := sha256.New()
	if err := save(h); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// itemsetsDigest fingerprints a mined collection: items and the exact bits
// of every support, in mined order.
func itemsetsDigest(sets []ppdm.Itemset) string {
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, s := range sets {
		word(uint64(len(s.Items)))
		for _, it := range s.Items {
			word(uint64(it))
		}
		word(math.Float64bits(s.Support))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// f1 scores a mined collection against the exact reference.
func f1(reference, mined []ppdm.Itemset) float64 {
	both, fp, fn := ppdm.CompareMining(reference, mined)
	if both == 0 {
		return 0
	}
	return 2 * float64(both) / float64(2*both+fp+fn)
}

// allocated is the number of bytes the heap has allocated since the
// process started.
func allocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// mb converts a byte count to MiB.
func mb(bytes float64) float64 { return bytes / (1 << 20) }
