// Command benchmark runs one end-to-end workload of the ppdm pipeline for a
// fixed number of seconds and prints its metrics as one JSON object on the
// last line of standard output:
//
//	go run . -workload train -seed 1 -seconds 30 -trace 0
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around every call into a layer, writes them to
// .bench_build/trace-<workload>-seed<n>.json and reports per-layer metrics
// instead. Every input derives from -seed. The run checks its own outputs
// and exits non-zero when any check fails. README.md documents the
// workloads and metrics.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef declares one reported metric; BENCHMARK.json lists the same
// names and units.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports. Every workload fills
// each of them with its own reading (README.md has the table).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"main_per_s", "1/s"},
	{"second_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"quality", "ratio"},
}

// servePhases are the suffixes of the per-phase serving metrics.
var servePhases = []string{"r1000", "r4000", "bulk"}

// perLayer are the metrics a traced run reports. A workload that does not
// exercise a layer reports it as 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"proc.peak_rss_mb", "MB"},
		{"synth.next_s", "s"},
		{"noise.next_s", "s"},
		{"core.spill_s", "s"},
		{"core.spill_bytes", "bytes"},
		{"core.merge_s", "s"},
		{"core.train_byclass_s", "s"},
		{"reconstruct.probe_s", "s"},
		{"reconstruct.iters", "count"},
		{"reconstruct.unconverged", "count"},
		{"reconstruct.cache_hits", "count"},
		{"reconstruct.cache_misses", "count"},
		{"tree.nodes", "count"},
		{"tree.depth", "count"},
		{"bayes.add_batch_s", "s"},
		{"bayes.finalize_s", "s"},
		{"bayes.accuracy", "ratio"},
		{"assoc.index_build_s", "s"},
		{"assoc.mine_s", "s"},
		{"assoc.exact_mine_s", "s"},
		{"assoc.remine_s", "s"},
		{"assoc.add_batch_s", "s"},
		{"assoc.itemsets", "count"},
		{"loadgen.p99_ms_r1000", "ms"},
		{"loadgen.p50_ms_r4000", "ms"},
		{"loadgen.p99_ms_r4000", "ms"},
	}
	for _, p := range servePhases {
		defs = append(defs,
			metricDef{"serve.handler_mean_ms_" + p, "ms"},
			metricDef{"serve.outside_handler_share_" + p, "ratio"},
			metricDef{"serve.cache_hit_ratio_" + p, "ratio"},
			metricDef{"serve.records_total_" + p, "count"},
			metricDef{"serve.largest_flush_" + p, "count"},
			metricDef{"serve.queue_rejects_" + p, "count"},
			metricDef{"serve.deadline_rejects_" + p, "count"},
			metricDef{"serve.shed_" + p, "count"},
			metricDef{"serve.flushes_" + p, "count"},
			metricDef{"serve.records_per_flush_" + p, "count"},
		)
	}
	return append(defs,
		metricDef{"loadgen.lateness_p99_ms_r1000", "ms"},
		metricDef{"loadgen.lateness_p99_ms_r4000", "ms"},
		metricDef{"loadgen.max_rate_p99_5ms", "1/s"},
		metricDef{"loadgen.bulk_records_per_s", "1/s"},
		metricDef{"trace.overhead", "ratio"},
	)
}()

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"train": train,
	"serve": serveClassify,
	"mine":  mine,
}

// run is one workload execution: its settings, and what it measured and
// checked.
type run struct {
	workload string
	seed     uint64
	budget   time.Duration // the timed window
	trace    bool
	workers  int     // Workers for every layer, and GOMAXPROCS
	dir      string  // scratch for spills and model files, inside the checkout
	scale    float64 // input-size multiplier: 1 here, smaller in the tests

	tr        *tracer // nil unless trace
	lastOp    int     // the last op ID handed out for traced spans
	attempted int
	failed    int
	problems  []string
	metrics   map[string]float64
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Uint64("seed", 1, "seed every input derives from")
	seconds := flag.Int("seconds", 30, "length of the timed window")
	trace := flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	flag.Parse()
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	dir, err := os.MkdirTemp(".bench_build", "run-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	r := &run{
		workload: *workload,
		seed:     *seed,
		budget:   time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		workers:  runtime.GOMAXPROCS(0),
		dir:      dir,
		scale:    1,
	}
	fmt.Println(header(r))
	res, err := r.execute()
	os.RemoveAll(dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	if r.trace {
		path := filepath.Join(".bench_build", fmt.Sprintf("trace-%s-seed%d.json", r.workload, r.seed))
		if err := r.tr.writeFile(path, r.workload, r.seed); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchmark: spans written to", path)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", p)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// execute runs the workload and assembles the result. An error means the
// workload could not run at all; failed checks land in r.problems.
func (r *run) execute() (result, error) {
	r.metrics = make(map[string]float64)
	if r.trace {
		r.tr = newTracer()
	}
	if err := workloads[r.workload](r); err != nil {
		return result{}, fmt.Errorf("%s: %w", r.workload, err)
	}
	r.metrics["proc.peak_rss_mb"] = peakRSSMB()
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := r.metrics[d.name]
		if !ok && !r.trace {
			return result{}, fmt.Errorf("%s: end-to-end metric %s was not measured", r.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return result{}, fmt.Errorf("%s: metric %s is %v", r.workload, d.name, v)
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if res.Attempted < 1 {
		return result{}, fmt.Errorf("%s: no operation ran", r.workload)
	}
	return res, nil
}

// check records a failed correctness check.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// size scales an input size, keeping it at least min.
func (r *run) size(n, min int) int {
	if m := int(float64(n) * r.scale); m > min {
		return m
	}
	return min
}

// header describes the host, so a reading can be matched to the machine
// that produced it.
func header(r *run) string {
	h := map[string]any{
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.budget.Seconds(),
		"trace":      r.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	}
	b, _ := json.Marshal(h) // a map of plain values always marshals
	return string(b)
}

// cpuModel reads the processor name from /proc/cpuinfo ("unknown" off Linux).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
