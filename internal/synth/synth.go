package synth

import (
	"fmt"

	"ppdm/internal/dataset"
	"ppdm/internal/prng"
)

// Attribute indices into a generated record, in schema order.
const (
	AttrSalary = iota
	AttrCommission
	AttrAge
	AttrElevel
	AttrCar
	AttrZipcode
	AttrHvalue
	AttrHyears
	AttrLoan
	numAttrs
)

// Class codes. GroupB is 0 so that "B" is the first class name, matching the
// generator's convention that records not satisfying the predicate fall into
// Group B.
const (
	GroupB = 0
	GroupA = 1
)

// Schema returns the benchmark schema: the nine AIS attributes with their
// published domains, and classes {"B", "A"}.
func Schema() *dataset.Schema {
	return dataset.MustSchema(
		[]dataset.Attribute{
			dataset.NumericAttr("salary", 20000, 150000),
			dataset.NumericAttr("commission", 0, 75000),
			dataset.NumericAttr("age", 20, 80),
			dataset.IntegerAttr("elevel", 0, 4),
			dataset.IntegerAttr("car", 1, 20),
			dataset.IntegerAttr("zipcode", 1, 9),
			dataset.NumericAttr("hvalue", 50000, 1350000),
			dataset.IntegerAttr("hyears", 1, 30),
			dataset.NumericAttr("loan", 0, 500000),
		},
		[]string{"B", "A"},
	)
}

// Function identifies one of the ten AIS classification functions.
type Function int

// The ten classification functions. F1–F5 appear in the privacy paper's
// evaluation (its "classification functions" figure); F6–F10 complete the
// original generator.
const (
	F1 Function = iota + 1
	F2
	F3
	F4
	F5
	F6
	F7
	F8
	F9
	F10
)

// String returns "F1".."F10".
func (f Function) String() string { return fmt.Sprintf("F%d", int(f)) }

// ParseFunction parses "F3" or "3" into a Function.
func ParseFunction(s string) (Function, error) {
	var n int
	if _, err := fmt.Sscanf(s, "F%d", &n); err != nil {
		if _, err := fmt.Sscanf(s, "%d", &n); err != nil {
			return 0, fmt.Errorf("synth: cannot parse function %q", s)
		}
	}
	f := Function(n)
	if f < F1 || f > F10 {
		return 0, fmt.Errorf("synth: function %q out of range F1..F10", s)
	}
	return f, nil
}

// Valid reports whether f is one of F1..F10.
func (f Function) Valid() bool { return f >= F1 && f <= F10 }

// Classify applies the function's published predicate to a full record and
// returns GroupA or GroupB. The record must have the 9 attributes in schema
// order.
func (f Function) Classify(rec []float64) int {
	salary := rec[AttrSalary]
	commission := rec[AttrCommission]
	age := rec[AttrAge]
	elevel := rec[AttrElevel]
	hvalue := rec[AttrHvalue]
	hyears := rec[AttrHyears]
	loan := rec[AttrLoan]

	between := func(v, lo, hi float64) bool { return lo <= v && v <= hi }
	groupA := false
	switch f {
	case F1:
		groupA = age < 40 || age >= 60
	case F2:
		groupA = (age < 40 && between(salary, 50000, 100000)) ||
			(age >= 40 && age < 60 && between(salary, 75000, 125000)) ||
			(age >= 60 && between(salary, 25000, 75000))
	case F3:
		groupA = (age < 40 && between(elevel, 0, 1)) ||
			(age >= 40 && age < 60 && between(elevel, 1, 3)) ||
			(age >= 60 && between(elevel, 2, 4))
	case F4:
		switch {
		case age < 40:
			if between(elevel, 0, 1) {
				groupA = between(salary, 25000, 75000)
			} else {
				groupA = between(salary, 50000, 100000)
			}
		case age < 60:
			if between(elevel, 1, 3) {
				groupA = between(salary, 50000, 100000)
			} else {
				groupA = between(salary, 75000, 125000)
			}
		default:
			if between(elevel, 2, 4) {
				groupA = between(salary, 50000, 100000)
			} else {
				groupA = between(salary, 25000, 75000)
			}
		}
	case F5:
		groupA = (age < 40 && between(salary, 50000, 100000) && between(loan, 100000, 300000)) ||
			(age >= 40 && age < 60 && between(salary, 75000, 125000) && between(loan, 200000, 400000)) ||
			(age >= 60 && between(salary, 25000, 75000) && between(loan, 300000, 500000))
	case F6:
		total := salary + commission
		groupA = (age < 40 && between(total, 50000, 100000)) ||
			(age >= 40 && age < 60 && between(total, 75000, 125000)) ||
			(age >= 60 && between(total, 25000, 75000))
	case F7:
		groupA = 0.67*(salary+commission)-0.2*loan-20000 > 0
	case F8:
		// Constant term adapted from the original 20000 so that the class
		// split is non-degenerate under the published attribute
		// distributions (without a loan term the published constant labels
		// ~98% of records Group A).
		groupA = 0.67*(salary+commission)-5000*elevel-60000 > 0
	case F9:
		groupA = 0.67*(salary+commission)-5000*elevel-0.2*loan-10000 > 0
	case F10:
		equity := 0.0
		if hyears >= 20 {
			equity = 0.1 * hvalue * (hyears - 20)
		}
		// Constant term adapted (10000 → 60000) for a non-degenerate split,
		// as for F8.
		groupA = 0.67*(salary+commission)-5000*elevel+0.2*equity-60000 > 0
	default:
		panic(fmt.Sprintf("synth: Classify on invalid function %d", int(f)))
	}
	if groupA {
		return GroupA
	}
	return GroupB
}

// Config parameterizes Generate.
type Config struct {
	Function Function
	N        int
	Seed     uint64

	// LabelNoise flips each record's class with this probability,
	// approximating the AIS generator's "perturbation factor". 0 disables.
	LabelNoise float64

	// Workers bounds the generation parallelism; 0 means all cores. The
	// generated table is bit-identical for every worker count.
	Workers int
}

// GenChunk is the fixed record-chunk length of generation. Chunk c always
// draws from the c-th attribute and label-noise substreams of the seed, so
// the output depends only on (Function, N, Seed, LabelNoise).
const GenChunk = 4096

// labelNoiseSeedMix separates the label-noise substreams from the attribute
// substreams of the same seed, so attribute values are identical for the
// same seed whether or not label noise is enabled.
const labelNoiseSeedMix = 0xA15A15A15A15A15A

// Generate draws N records from the attribute distributions, labels each
// with cfg.Function, and returns the table: the single batch of
// Stream(cfg, cfg.N), adopted without a copy. Generation is deterministic
// in cfg.Seed and independent of cfg.Workers.
func Generate(cfg Config) (*dataset.Table, error) {
	g, err := Stream(cfg, cfg.N)
	if err != nil {
		return nil, err
	}
	b, err := g.Next()
	if err != nil {
		return nil, err
	}
	return dataset.NewTableFromDense(g.Schema(), b.Values, b.Labels)
}

// sampleRecord fills rec with one draw from the published attribute
// distributions.
func sampleRecord(r *prng.Source, rec []float64) {
	salary := r.Uniform(20000, 150000)
	rec[AttrSalary] = salary
	if salary >= 75000 {
		rec[AttrCommission] = 0
	} else {
		rec[AttrCommission] = r.Uniform(10000, 75000)
	}
	rec[AttrAge] = r.Uniform(20, 80)
	rec[AttrElevel] = float64(r.Intn(5))
	rec[AttrCar] = float64(1 + r.Intn(20))
	zip := 1 + r.Intn(9)
	rec[AttrZipcode] = float64(zip)
	base := float64(zip) * 100000
	rec[AttrHvalue] = r.Uniform(0.5*base, 1.5*base)
	rec[AttrHyears] = float64(1 + r.Intn(30))
	rec[AttrLoan] = r.Uniform(0, 500000)
}
