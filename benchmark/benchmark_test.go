package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"testing"
	"time"
)

// declaration is the part of BENCHMARK.json the program must honour.
type declaration struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readDeclaration(t *testing.T) declaration {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var d declaration
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return d
}

// TestDeclaredWorkloads checks that BENCHMARK.json and the program list the
// same workloads.
func TestDeclaredWorkloads(t *testing.T) {
	var declared []string
	for _, w := range readDeclaration(t).Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	got := workloadNames()
	if len(got) != len(declared) {
		t.Fatalf("program runs %v, BENCHMARK.json declares %v", got, declared)
	}
	for i := range got {
		if got[i] != declared[i] {
			t.Fatalf("program runs %v, BENCHMARK.json declares %v", got, declared)
		}
	}
}

// TestFailedRequestLatency puts failed requests into an open-loop phase:
// they must miss every latency limit, and every latency quantile must stay
// finite so that the result line still marshals.
func TestFailedRequestLatency(t *testing.T) {
	const n = 100
	p := phaseResult{
		rate:     1000,
		due:      make([]time.Duration, n),
		sent:     make([]time.Duration, n),
		done:     make([]time.Duration, n),
		ok:       make([]bool, n),
		lateness: make([]time.Duration, n),
	}
	for i := range p.due {
		p.due[i] = time.Duration(i) * time.Millisecond
		p.sent[i] = p.due[i]
		p.done[i] = p.due[i] + time.Millisecond
		p.ok[i] = i < n-2 // the last two failed, one of them at once
	}
	p.done[n-1] = p.due[n-1] + 2*clientTimeout
	p.failures = 2
	for _, q := range []float64{0.5, 0.99, 1} {
		v := p.quantile(q)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("quantile %v = %v", q, v)
		}
		if _, err := json.Marshal(metricValue{Value: v, Unit: "ms"}); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.quantile(0.99); got < ms(clientTimeout) {
		t.Errorf("a failed request's latency reads %.3f ms, below the %v client timeout", got, clientTimeout)
	}
	if p.meetsLimit() {
		t.Error("a phase with failed requests meets the latency limit")
	}
}

// TestWorkloads runs every workload in-process on small inputs, untraced
// and traced. Each run must pass its own correctness checks and emit
// exactly the metrics BENCHMARK.json declares, with their units; the
// untraced metrics must be positive. A traced run's spans must survive a
// round trip through the trace file and tile the median op within 5%.
func TestWorkloads(t *testing.T) {
	decl := readDeclaration(t)
	seconds := 1.0
	if testing.Short() {
		seconds = 0.3
	}
	for _, name := range workloadNames() {
		for _, traced := range []bool{false, true} {
			mode := "untraced"
			if traced {
				mode = "traced"
			}
			t.Run(name+"/"+mode, func(t *testing.T) {
				r := &run{
					workload: name,
					seed:     7,
					budget:   time.Duration(seconds * float64(time.Second)),
					trace:    traced,
					workers:  runtime.GOMAXPROCS(0),
					dir:      t.TempDir(),
					scale:    0.02,
				}
				res, err := r.execute()
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || len(r.problems) > 0 {
					t.Fatalf("checks failed: %v", r.problems)
				}
				switch {
				case res.Attempted < 1:
					t.Errorf("no op attempted")
				case res.Failed != 0:
					t.Errorf("%d of %d ops failed", res.Failed, res.Attempted)
				}
				want := decl.EndToEnd
				if traced {
					want = decl.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("emitted %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not emitted", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s in %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					case !traced && !(got.Value > 0):
						t.Errorf("end-to-end metric %s = %v, want > 0", m.Name, got.Value)
					}
				}
				if !traced {
					return
				}

				path := filepath.Join(t.TempDir(), "trace.json")
				if err := r.tr.writeFile(path, name, r.seed); err != nil {
					t.Fatal(err)
				}
				b, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				var tf traceFile
				if err := json.Unmarshal(b, &tf); err != nil {
					t.Fatalf("trace does not parse: %v", err)
				}
				if tf.Workload != name || len(tf.Spans) == 0 {
					t.Fatalf("trace of %q holds %d spans", tf.Workload, len(tf.Spans))
				}
				for root := range coveredStages {
					if !slices.ContainsFunc(tf.Spans, func(s span) bool { return s.Name == root }) {
						continue
					}
					if c := medianCoverage(tf.Spans, root); !(c > 0.95 && c < 1.05) {
						t.Errorf("stages cover %.3f of the median %s wall time", c, root)
					}
				}
			})
		}
	}
}
