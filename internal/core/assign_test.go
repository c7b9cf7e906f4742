package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"ppdm/internal/noise"
	"ppdm/internal/prng"
	"ppdm/internal/reconstruct"
	"ppdm/internal/stats"
	"ppdm/internal/synth"
)

func TestApportionExact(t *testing.T) {
	counts := apportion([]float64{0.5, 0.25, 0.25}, 8)
	want := []int{4, 2, 2}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("apportion = %v, want %v", counts, want)
		}
	}
}

func TestApportionRemainders(t *testing.T) {
	// 1/3 each over 10 records: 3.33 each, largest remainders break ties by
	// index: 4,3,3.
	counts := apportion([]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}, 10)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 10 {
		t.Fatalf("apportion sums to %d", sum)
	}
	if counts[0] != 4 || counts[1] != 3 || counts[2] != 3 {
		t.Fatalf("apportion = %v, want [4 3 3]", counts)
	}
}

func TestApportionSumsProperty(t *testing.T) {
	f := func(seed uint64, kRaw uint8, nRaw uint16) bool {
		r := prng.New(seed)
		k := int(kRaw%30) + 1
		n := int(nRaw % 5000)
		p := make([]float64, k)
		for i := range p {
			p[i] = r.Float64()
		}
		stats.Normalize(p)
		counts := apportion(p, n)
		sum := 0
		for _, c := range counts {
			if c < 0 {
				return false
			}
			sum += c
		}
		return sum == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestOrderedAssignEmpty(t *testing.T) {
	bins, err := orderedAssign(nil, []float64{1})
	if err != nil || bins != nil {
		t.Fatalf("empty assign = %v, %v", bins, err)
	}
	if _, err := orderedAssign([]float64{1}, nil); err == nil {
		t.Fatal("empty distribution accepted")
	}
}

func TestOrderedAssignCountsMatchApportion(t *testing.T) {
	r := prng.New(5)
	values := make([]float64, 100)
	for i := range values {
		values[i] = r.Uniform(0, 1)
	}
	p := []float64{0.1, 0.4, 0.3, 0.2}
	bins, err := orderedAssign(values, p)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]int, len(p))
	for _, b := range bins {
		got[b]++
	}
	want := apportion(p, len(values))
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("assignment counts %v, want %v", got, want)
		}
	}
}

func TestOrderedAssignPreservesOrder(t *testing.T) {
	// The record with a smaller perturbed value never lands in a higher bin.
	r := prng.New(6)
	values := make([]float64, 200)
	for i := range values {
		values[i] = r.Gaussian(50, 20)
	}
	p := []float64{0.25, 0.25, 0.25, 0.25}
	bins, err := orderedAssign(values, p)
	if err != nil {
		t.Fatal(err)
	}
	idx := make([]int, len(values))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return values[idx[a]] < values[idx[b]] })
	prev := -1
	for _, i := range idx {
		if bins[i] < prev {
			t.Fatal("ordered assignment violated monotonicity")
		}
		prev = bins[i]
	}
}

func TestOrderedAssignSkipsZeroBins(t *testing.T) {
	values := []float64{3, 1, 2, 4}
	p := []float64{0.5, 0, 0, 0.5}
	bins, err := orderedAssign(values, p)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 0, 0, 3} // two smallest to bin 0, two largest to bin 3
	for i := range want {
		if bins[i] != want[i] {
			t.Fatalf("bins = %v, want %v", bins, want)
		}
	}
}

func TestOrderedAssignProperty(t *testing.T) {
	f := func(seed uint64, nRaw uint16, kRaw uint8) bool {
		r := prng.New(seed)
		n := int(nRaw%500) + 1
		k := int(kRaw%20) + 1
		values := make([]float64, n)
		for i := range values {
			values[i] = r.Gaussian(0, 100)
		}
		p := make([]float64, k)
		for i := range p {
			p[i] = r.Float64()
		}
		stats.Normalize(p)
		bins, err := orderedAssign(values, p)
		if err != nil || len(bins) != n {
			return false
		}
		counts := make([]int, k)
		for _, b := range bins {
			if b < 0 || b >= k {
				return false
			}
			counts[b]++
		}
		want := apportion(p, n)
		for i := range want {
			if counts[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// referenceOrderedAssign is ordered re-assignment as a stable sort of the
// record indices by value, the formulation orderedAssign must reproduce
// record for record.
func referenceOrderedAssign(values []float64, p []float64) ([]int, error) {
	n := len(values)
	if n == 0 {
		return nil, nil
	}
	if len(p) == 0 {
		return nil, fmt.Errorf("core: orderedAssign with empty distribution")
	}
	counts := apportion(p, n)

	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return values[order[a]] < values[order[b]] })

	bins := make([]int, n)
	b, used := 0, 0
	for _, idx := range order {
		for b < len(counts)-1 && used >= counts[b] {
			b++
			used = 0
		}
		bins[idx] = b
		used++
	}
	return bins, nil
}

// assignCase is one input of the oracle comparison.
type assignCase struct {
	name   string
	values []float64
	p      []float64
}

// randomDist returns a normalized random distribution over k intervals.
func randomDist(r *prng.Source, k int) []float64 {
	p := make([]float64, k)
	for i := range p {
		p[i] = r.Float64()
	}
	stats.Normalize(p)
	return p
}

// assignCases are inputs that reach every branch of orderedAssign: heavy
// ties across block boundaries, signed zeros, ranges too narrow or too wide
// for equal-width buckets, one distinct value, zero-mass intervals, and
// sizes from one record to a full training class.
func assignCases() []assignCase {
	r := prng.New(11)
	draw := func(n int, f func(i int) float64) []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = f(i)
		}
		return v
	}
	gauss := func(n int) []float64 { return draw(n, func(int) float64 { return r.Gaussian(50, 20) }) }
	ints := func(n, card int) []float64 {
		return draw(n, func(int) float64 { return float64(r.Intn(card) - card/2) })
	}
	tiny := math.SmallestNonzeroFloat64
	negZero := math.Copysign(0, -1)

	cases := []assignCase{
		{"n=1", []float64{3.5}, []float64{0.2, 0.8}},
		{"n=1 k=1", []float64{-2}, []float64{1}},
		{"k>n", gauss(5), randomDist(r, 12)},
		{"k>>n", gauss(40), randomDist(r, 300)},
		{"k=1", gauss(1000), []float64{1}},
		{"all equal", draw(1000, func(int) float64 { return 42 }), randomDist(r, 7)},
		{"all equal k=50", draw(5000, func(int) float64 { return -3.25 }), randomDist(r, 50)},
		{"signed zeros only", draw(300, func(i int) float64 { return []float64{0, negZero}[i%2] }), randomDist(r, 5)},
		{"signed zeros among ints", draw(1000, func(i int) float64 {
			if r.Intn(3) == 0 {
				return float64(r.Intn(5) - 2)
			}
			return []float64{0, negZero}[r.Intn(2)]
		}), randomDist(r, 9)},
		{"signed zeros at the minimum", draw(500, func(i int) float64 {
			if i%3 == 0 {
				return r.Uniform(0, 10)
			}
			return []float64{negZero, 0}[r.Intn(2)]
		}), randomDist(r, 6)},
		{"subnormals only", draw(800, func(int) float64 { return float64(r.Intn(7)-3) * tiny }), randomDist(r, 8)},
		{"subnormals and zeros", draw(800, func(int) float64 {
			return []float64{tiny, -tiny, 0, negZero, 2 * tiny}[r.Intn(5)]
		}), randomDist(r, 4)},
		{"subnormals beside normals", draw(1000, func(i int) float64 {
			if i%10 == 0 {
				return r.Uniform(1, 2)
			}
			return float64(r.Intn(9)) * tiny
		}), randomDist(r, 10)},
		{"max float both signs", draw(1000, func(i int) float64 {
			switch i % 7 {
			case 0:
				return math.MaxFloat64
			case 1:
				return -math.MaxFloat64
			}
			return r.Gaussian(0, 1e300)
		}), randomDist(r, 11)},
		{"max float and zero", draw(1000, func(i int) float64 {
			if i%2 == 0 {
				return math.MaxFloat64
			}
			return r.Uniform(0, math.MaxFloat64)
		}), randomDist(r, 7)},
		{"zero-mass first middle last", gauss(1000), []float64{0, 0.3, 0, 0, 0.5, 0.2, 0}},
		{"one live interval", gauss(700), []float64{0, 0, 1, 0, 0}},
		{"zero-mass runs on ties", ints(3000, 4), []float64{0, 0.1, 0, 0, 0.4, 0, 0.2, 0.3, 0}},
		{"narrow intervals on one value", draw(2000, func(i int) float64 {
			if i%2 == 0 {
				return 7
			}
			return r.Uniform(0, 14)
		}), randomDist(r, 50)},
		{"ties straddle k=7", ints(1000, 5), randomDist(r, 7)},
		{"ties straddle k=50", ints(20000, 5), randomDist(r, 50)},
		{"ties straddle n=50k", ints(50000, 40), randomDist(r, 50)},
		{"gaussian n=50k", gauss(50000), randomDist(r, 50)},
	}
	// Sizes around one bucket's worth of records, and random shapes with a
	// coarse grid that makes ties common.
	for _, n := range []int{2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65} {
		cases = append(cases, assignCase{fmt.Sprintf("gaussian n=%d", n), gauss(n), randomDist(r, 1+r.Intn(10))})
	}
	for i := range 40 {
		n := 1 + r.Intn(3000)
		grid := []float64{1, 0.5, 1e-3, 17}[i%4]
		cases = append(cases, assignCase{fmt.Sprintf("random %d", i),
			draw(n, func(int) float64 { return math.Round(r.Gaussian(0, 30)/grid) * grid }),
			randomDist(r, 1+r.Intn(60))})
	}
	return cases
}

// checkOrderedAssign fails t unless orderedAssign and the oracle agree on
// every record.
func checkOrderedAssign(t *testing.T, values, p []float64) {
	t.Helper()
	got, err := orderedAssign(values, p)
	want, wantErr := referenceOrderedAssign(values, p)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("error = %v, oracle error = %v", err, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d bins, oracle %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d (value %v): bin %d, oracle %d (n=%d, k=%d)", i, values[i], got[i], want[i], len(values), len(p))
		}
	}
}

func TestOrderedAssignMatchesReference(t *testing.T) {
	for _, c := range assignCases() {
		t.Run(c.name, func(t *testing.T) { checkOrderedAssign(t, c.values, c.p) })
	}
}

// maxIntervals and maxSeedValues bound the fuzz input: the interval count
// one byte selects, and the property-test inputs small enough to seed the
// corpus without slowing every mutation.
const (
	maxIntervals  = 64
	maxSeedValues = 1024
)

// encodeAssignInput is decodeAssignInput's inverse up to the quantization
// of p to byte weights.
func encodeAssignInput(values, p []float64) []byte {
	top := 0.0
	for _, v := range p {
		top = max(top, v)
	}
	data := []byte{byte(len(p) - 1)}
	for _, v := range p {
		data = append(data, byte(math.Round(255*v/top)))
	}
	for _, v := range values {
		data = binary.LittleEndian.AppendUint64(data, math.Float64bits(v))
	}
	return data
}

// decodeAssignInput reads fuzz bytes as one orderedAssign input: data[0]
// picks k in [1, maxIntervals], the next k bytes weigh the intervals (p is
// their normalization, uniform when all are zero), and the rest is read as
// little-endian float64 words, dropping non-finite ones. ok is false when
// the bytes are too short to hold p.
func decodeAssignInput(data []byte) (values, p []float64, ok bool) {
	if len(data) == 0 {
		return nil, nil, false
	}
	k := int(data[0])%maxIntervals + 1
	data = data[1:]
	if len(data) < k {
		return nil, nil, false
	}
	p = make([]float64, k)
	sum := 0.0
	for i := range p {
		p[i] = float64(data[i])
		sum += p[i]
	}
	for i := range p {
		if sum == 0 {
			p[i] = 1 / float64(k)
		} else {
			p[i] /= sum
		}
	}
	for data = data[k:]; len(data) >= 8; data = data[8:] {
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		if !math.IsNaN(v) && !math.IsInf(v, 0) {
			values = append(values, v)
		}
	}
	return values, p, true
}

func FuzzOrderedAssign(f *testing.F) {
	for _, c := range assignCases() {
		if len(c.values) <= maxSeedValues && len(c.p) <= maxIntervals {
			f.Add(encodeAssignInput(c.values, c.p))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		values, p, ok := decodeAssignInput(data)
		if !ok {
			return
		}
		checkOrderedAssign(t, values, p)
	})
}

// orderedAssignBenchInput is one class column of the repository
// benchmark's streamed tree: 50k F2 salaries of one class, perturbed with
// gaussian noise at 100% privacy, and the 50-interval distribution training
// reconstructs from them.
func orderedAssignBenchInput(b *testing.B) (values, p []float64) {
	b.Helper()
	const n = 50_000
	clean, err := synth.Generate(synth.Config{Function: synth.F2, N: 3 * n, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	s := clean.Schema()
	models, err := noise.ModelsForAllAttrs(s, "gaussian", 1.0, noise.DefaultConfidence)
	if err != nil {
		b.Fatal(err)
	}
	perturbed, err := noise.PerturbTable(clean, models, 2)
	if err != nil {
		b.Fatal(err)
	}
	j := synth.AttrSalary
	values, _ = perturbed.ColumnForClass(j, 0)
	if len(values) < n {
		b.Fatalf("class 0 holds %d records, want >= %d", len(values), n)
	}
	values = values[:n]
	parts, err := attrPartitions(s, DefaultIntervals)
	if err != nil {
		b.Fatal(err)
	}
	res, err := reconstruct.Reconstruct(values, reconCfg(Config{ReconEpsilon: DefaultReconEpsilon}, parts[j], models[j]))
	if err != nil {
		b.Fatal(err)
	}
	return values, res.P
}

// benchBins keeps the benchmarked assignments live.
var benchBins []int

func benchOrderedAssign(b *testing.B, assign func(values, p []float64) ([]int, error)) {
	values, p := orderedAssignBenchInput(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bins, err := assign(values, p)
		if err != nil {
			b.Fatal(err)
		}
		benchBins = bins
	}
	b.ReportMetric(float64(len(values)), "records/op")
}

func BenchmarkOrderedAssignReference(b *testing.B) { benchOrderedAssign(b, referenceOrderedAssign) }
func BenchmarkOrderedAssign(b *testing.B)          { benchOrderedAssign(b, orderedAssign) }

func TestModeParseAndString(t *testing.T) {
	for _, m := range Modes() {
		parsed, err := ParseMode(m.String())
		if err != nil || parsed != m {
			t.Errorf("round trip of %v failed: %v, %v", m, parsed, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("bogus mode parsed")
	}
	if Mode(99).Valid() {
		t.Error("Mode(99) claims valid")
	}
	if !Global.NeedsNoise() || !ByClass.NeedsNoise() || !Local.NeedsNoise() {
		t.Error("reconstruction modes must need noise")
	}
	if Original.NeedsNoise() || Randomized.NeedsNoise() {
		t.Error("baseline modes must not need noise")
	}
}
