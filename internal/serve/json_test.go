package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"ppdm/internal/prng"
)

// decodeReference is the encoding/json semantics the hand parser must
// match: decode one value into the struct, as a json.Decoder reading the
// request body would (bytes after it are ignored), then prepend a non-nil
// "record".
func decodeReference(t testing.TB, body []byte) ([][]float64, error) {
	t.Helper()
	var req classifyRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, err
	}
	records := req.Records
	if req.Record != nil {
		records = append([][]float64{req.Record}, records...)
	}
	return records, nil
}

// checkParserAgainstReference parses body both ways and compares outcomes.
func checkParserAgainstReference(t testing.TB, sc *classifyScratch, body []byte) bool {
	t.Helper()
	want, refErr := decodeReference(t, body)
	gotErr := sc.parseClassifyRequest(body)
	if (refErr == nil) != (gotErr == nil) {
		t.Logf("body %q: reference err %v, parser err %v", body, refErr, gotErr)
		return false
	}
	if refErr != nil {
		return true
	}
	got := sc.records
	if len(got) != len(want) {
		t.Logf("body %q: parser found %d records, reference %d", body, len(got), len(want))
		return false
	}
	for i := range want {
		w, g := want[i], got[i]
		if len(w) != len(g) {
			t.Logf("body %q record %d: width %d vs %d", body, i, len(g), len(w))
			return false
		}
		for j := range w {
			// Bit-identical, including negative zero; NaN cannot appear in JSON.
			if math.Float64bits(w[j]) != math.Float64bits(g[j]) {
				t.Logf("body %q record %d value %d: parser %v (%x), reference %v (%x)",
					body, i, j, g[j], math.Float64bits(g[j]), w[j], math.Float64bits(w[j]))
				return false
			}
		}
	}
	return true
}

// TestParseClassifyRequestMatchesEncodingJSON is the parser's differential
// contract on well-formed bodies: for fuzzed requests round-tripped
// through json.Marshal — including values whose shortest decimal form
// exceeds the Clinger fast path — the hand parser must produce
// bit-identical records to encoding/json.
func TestParseClassifyRequestMatchesEncodingJSON(t *testing.T) {
	sc := new(classifyScratch)
	f := func(seed uint64) bool {
		r := prng.New(seed)
		req := map[string]any{}
		width := 1 + r.Intn(6)
		randRec := func() []float64 {
			rec := make([]float64, width)
			for j := range rec {
				switch r.Intn(5) {
				case 0:
					rec[j] = float64(r.Intn(100)) // integral fast path
				case 1:
					rec[j] = r.Float64() * 1e3 // typical data value, 17 digits
				case 2:
					rec[j] = -r.Float64() * 1e-8 // negative small
				case 3:
					rec[j] = r.Float64() * 1e300 // extreme exponent: slow path
				default:
					rec[j] = float64(r.Intn(2000)-1000) / 64 // exact dyadic
				}
			}
			return rec
		}
		if r.Intn(2) == 0 {
			req["record"] = randRec()
		}
		if r.Intn(4) > 0 {
			n := r.Intn(5)
			recs := make([][]float64, n)
			for i := range recs {
				recs[i] = randRec()
			}
			req["records"] = recs
		}
		if r.Intn(3) == 0 { // unknown fields must be skipped
			req["metadata"] = map[string]any{"tag": "x", "nested": []any{1.5, "s", nil, true}}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Log(err)
			return false
		}
		if !checkParserAgainstReference(t, sc, body) {
			return false
		}
		// Indented spelling of the same document parses identically.
		var indented bytes.Buffer
		if err := json.Indent(&indented, body, "", "\t"); err != nil {
			t.Log(err)
			return false
		}
		return checkParserAgainstReference(t, sc, indented.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// classifyBodiesValid are corner spellings encoding/json accepts and the
// parser must read identically: null and empty fields, null records,
// duplicate keys (last wins), keys matched case-insensitively or spelled
// with escapes, unknown fields of every JSON type, every string escape,
// out-of-range numbers in an unknown field, nesting at the depth limit,
// and trailing bytes, which a json.Decoder never reads.
var classifyBodiesValid = []string{
	`{}`,
	`{ }`,
	`{"record": null}`,
	`{"record": []}`,
	`{"records": null}`,
	`{"records": []}`,
	`{"record": [1, 2.5, -3e2]}`,
	`{"records": [[1], [2]], "record": [0]}`,
	`{"records": [[1]], "records": [[2], [3]]}`,
	`{"records": [[1, 2]], "records": [null, [3]]}`,
	`{"x": {"deep": [{"a": "b"}]}, "record": [1e-30], "y": false}`,
	"{\n\t\"record\": [ 0.1 , 2 ]\n}",
	`{"record": [1]} trailing ignored like a json.Decoder would`,
	`{"Record": [1]}`,
	`{"RECORDS": [[1], [2]]}`,
	`{"recordſ": [[3]]}`,
	`{"rEcOrD": [4], "records": [[5]]}`,
	`{"re\u0063ord": [6]}`,
	`{"\u0052ECORDS": [[7]], "x": 1}`,
	`{"x": "a\"b\\c\/d\b\f\n\r\t\u00e9\uD83D\uDE00", "record": [8]}`,
	"{\"x\": \"caf\xc3\xa9 \xff\", \"record\": [9]}",
	`{"x": [1e400, -1e999], "record": [1e-400]}`,
	string(nestedBody(maxNestingDepth - 1)),
}

// classifyBodiesMalformed are bodies encoding/json rejects: broken syntax,
// numbers JSON forbids, fields of the wrong type, raw control bytes and
// invalid escapes in strings, and nesting one level past the limit.
var classifyBodiesMalformed = []string{
	``, `[1]`, `"s"`, `{`, `{"record": [1}`, `{"record": [01]}`,
	`{"record": [1.]}`, `{"record": [.5]}`, `{"record": [+1]}`,
	`{"record": [1e]}`, `{"record": [NaN]}`, `{"record": 5}`,
	`{"records": [5]}`, `{"record" [1]}`, `{"record": [1] "x": 2}`,
	`{"record": ["1"]}`, `{"unterminated": "st`, `{"record": [1, nul]}`,
	`{"record": [1e400]}`, `{"Records": [[1]], "RECORD": {}}`,
	"{\"x\": \"a\x01b\", \"record\": [1]}", "{\"rec\x1ford\": [1]}",
	`{"x": "\q", "record": [1]}`, `{"x": "\u12", "record": [1]}`,
	`{"x": "\u12G4", "record": [1]}`, `{"x": "\`, `{"re\u0063ord": [1}`,
	string(nestedBody(maxNestingDepth)),
}

// classifyBodiesNullNumber are bodies with a null inside a record, which
// encoding/json accepts (leaving the slot as it was) and the parser
// rejects.
var classifyBodiesNullNumber = []string{
	`{"record": [1, null, 2]}`,
	`{"record": [1, 2, 3], "record": [null]}`,
	`{"record": [null], "record": [1]}`,
	`{"records": [[1, 2]], "records": [[null, null], null]}`,
	`{"Records": [[1], [2, null]]}`,
	`{"\u0072ecord": [null]}`,
	`{"x": [1e400], "record": [null]}`,
}

// hasNullNumber reports whether body is an object one of whose "record" or
// "records" fields — matched as encoding/json matches keys, at any
// occurrence of a duplicated key — holds a null inside a record.
func hasNullNumber(body []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber() // an out-of-range number in an unknown field is no error
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return false
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		key, _ := tok.(string)
		var v any
		if err := dec.Decode(&v); err != nil {
			return false
		}
		arr, _ := v.([]any)
		switch {
		case strings.EqualFold(key, "record"):
			if slices.Contains(arr, nil) {
				return true
			}
		case strings.EqualFold(key, "records"):
			for _, rec := range arr {
				if inner, _ := rec.([]any); slices.Contains(inner, nil) {
					return true
				}
			}
		}
	}
	return false
}

// nestedBody returns {"x": <depth> nested arrays, "record": <a valid-width
// record>}: nesting depth+1 counting the top-level object, as encoding/json
// counts it. Only the nesting decides whether a server answers it.
func nestedBody(depth int) []byte {
	body := []byte(`{"x": `)
	body = append(body, bytes.Repeat([]byte("["), depth)...)
	body = append(body, bytes.Repeat([]byte("]"), depth)...)
	rec, _ := json.Marshal(record(1)) // a []float64 of finite values always marshals
	body = append(body, `, "record": `...)
	body = append(body, rec...)
	return append(body, '}')
}

// TestParseClassifyRequestEdgeCases pins the corner spellings against
// encoding/json, and rejects every malformed body and every null inside a
// record.
func TestParseClassifyRequestEdgeCases(t *testing.T) {
	sc := new(classifyScratch)
	for _, body := range classifyBodiesValid {
		if _, err := decodeReference(t, []byte(body)); err != nil {
			t.Errorf("reference rejects valid body %q: %v", body, err)
		}
		if !checkParserAgainstReference(t, sc, []byte(body)) {
			t.Errorf("body %q: parser and encoding/json disagree", body)
		}
	}
	for _, body := range classifyBodiesMalformed {
		if _, err := decodeReference(t, []byte(body)); err == nil {
			t.Errorf("reference accepts malformed body %q", body)
		}
		if err := sc.parseClassifyRequest([]byte(body)); err == nil {
			t.Errorf("body %q parsed without error", body)
		}
	}
	for _, body := range classifyBodiesNullNumber {
		if _, err := decodeReference(t, []byte(body)); err != nil || !hasNullNumber([]byte(body)) {
			t.Errorf("body %q: reference err %v, hasNullNumber %v; want an accepted null number", body, err, hasNullNumber([]byte(body)))
		}
		if err := sc.parseClassifyRequest([]byte(body)); err == nil {
			t.Errorf("body %q with a null number parsed without error", body)
		}
	}
}

// FuzzClassifyJSON checks the hand parser differentially against
// encoding/json: it errors exactly when a json.Decoder does, and otherwise
// yields bit-identical records after the prepend of "record". Two
// divergences are allowed, in each of which the parser must reject a body
// the decoder accepts (the handler answers 400 either way): a top-level
// non-object such as null, which the decoder reads as no records, and a
// null inside a record, which the decoder leaves as the slot was.
func FuzzClassifyJSON(f *testing.F) {
	for _, list := range [][]string{classifyBodiesValid, classifyBodiesMalformed, classifyBodiesNullNumber} {
		for _, body := range list {
			f.Add([]byte(body))
		}
	}
	f.Add([]byte(`null`))
	f.Fuzz(func(t *testing.T, body []byte) {
		sc := new(classifyScratch)
		if trimmed := bytes.TrimLeft(body, " \t\r\n"); len(trimmed) > 0 && trimmed[0] != '{' {
			if err := sc.parseClassifyRequest(body); err == nil {
				t.Fatalf("top-level non-object %q parsed without error", body)
			}
			return
		}
		if hasNullNumber(body) {
			if err := sc.parseClassifyRequest(body); err == nil {
				t.Fatalf("null inside a record in %q parsed without error", body)
			}
			return
		}
		if !checkParserAgainstReference(t, sc, body) {
			t.Fatalf("body %q: parser and encoding/json disagree", body)
		}
	})
}

// TestParseFloatMatchesStrconv hammers the number scanner alone: for
// random bit patterns rendered at shortest precision and back, the parsed
// value must be bit-identical to strconv.ParseFloat.
func TestParseFloatMatchesStrconv(t *testing.T) {
	r := prng.New(11)
	sc := new(classifyScratch)
	for trial := 0; trial < 20000; trial++ {
		bits := r.Uint64()
		f := math.Float64frombits(bits)
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		text := strconv.FormatFloat(f, 'g', -1, 64)
		if text[0] == '+' { // JSON numbers carry no plus sign
			text = text[1:]
		}
		p := classifyParser{data: []byte(text), sc: sc}
		got, err := p.parseFloat()
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		if p.pos != len(text) {
			t.Fatalf("%q: consumed %d of %d bytes", text, p.pos, len(text))
		}
		if math.Float64bits(got) != math.Float64bits(f) {
			t.Fatalf("%q: parsed %v (%x), want %v (%x)", text, got, math.Float64bits(got), f, bits)
		}
	}
}

// TestAppendClassifyResponseMatchesEncoder locks the hand-rendered
// response to the exact bytes writeJSON's json.Encoder would produce for
// the same document — field order, two-space indentation, trailing
// newline, everything.
func TestAppendClassifyResponseMatchesEncoder(t *testing.T) {
	m := fakeModel(&fakePredictor{}, 0)
	for _, classes := range [][]int{{0}, {0, 1, 0, 1}} {
		names := make([]string, len(classes))
		for i, c := range classes {
			names[i] = m.Schema.Classes[c]
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetIndent("", "  ")
		if err := enc.Encode(classifyResponse{
			N:            len(classes),
			Classes:      names,
			ClassIndices: classes,
			Cached:       1,
			Model:        info(m),
		}); err != nil {
			t.Fatal(err)
		}
		got := appendClassifyResponse(nil, m, classes, 1)
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("hand-rendered response differs from json.Encoder:\n got: %q\nwant: %q", got, want.Bytes())
		}
		// And it must round-trip through the documented response struct.
		var back classifyResponse
		if err := json.Unmarshal(got, &back); err != nil {
			t.Fatal(err)
		}
		if back.N != len(classes) || !reflect.DeepEqual(back.ClassIndices, classes) {
			t.Fatalf("round-trip mismatch: %+v", back)
		}
	}
}
