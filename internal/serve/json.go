package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"unsafe"
)

// Hand-rolled JSON codec for the /classify hot path. The wire format is
// exactly the one the classifyRequest/classifyResponse structs describe —
// those structs remain the authoritative schema (and the tests decode
// responses through them) — but encoding/json allocates per number, per
// record, and per encoder state, which would dominate a steady-state
// request. The parser below lands every float in a reusable arena and the
// renderer appends into a reusable buffer, so a warmed-up request touches
// the heap zero times. The cold paths (malformed input, exotic spellings)
// fall back to fmt/encoding-json freely.

// maxNestingDepth is encoding/json's nesting limit, counting the top-level
// object as depth 1. A body nested deeper is rejected, as the decoder
// rejects it, so skipping an unknown field recurses a bounded number of
// times however the body is built.
const maxNestingDepth = 10000

// recSeg is one parsed record's span inside the classifyScratch value
// arena; off < 0 marks a JSON null (a nil record).
type recSeg struct{ off, n int }

// classifyParser is a cursor over one request body.
type classifyParser struct {
	data []byte
	pos  int
	sc   *classifyScratch
}

// parseClassifyRequest parses a /classify JSON body of the form
// {"record": [...], "records": [[...], ...]} into sc.records. Float values
// land in the sc.values arena and record headers are rebuilt over it after
// parsing completes (the arena may move while growing), so the steady
// state allocates nothing. As with encoding/json, keys match field names
// under Unicode case folding (strings.EqualFold), unknown fields are
// skipped and the last occurrence of a duplicated field wins. A present
// "record" becomes records[0], matching the documented prepend semantics.
// Unlike encoding/json, which leaves the slot unchanged, a null inside a
// record is an error: the client left a feature out.
func (sc *classifyScratch) parseClassifyRequest(data []byte) error {
	sc.values = sc.values[:0]
	sc.segs = sc.segs[:0]
	sc.records = sc.records[:0]
	p := classifyParser{data: data, sc: sc}
	single := recSeg{off: -1}

	p.skipSpace()
	if !p.consume('{') {
		return p.syntaxErr("expected a JSON object")
	}
	p.skipSpace()
	if !p.consume('}') {
		for {
			p.skipSpace()
			keyStart := p.pos
			key, escaped, err := p.parseString()
			if err != nil {
				return err
			}
			if escaped {
				// No real client escapes a key, so this cold path may
				// allocate; parseString has already validated the escapes.
				var k string
				if err := json.Unmarshal(p.data[keyStart:p.pos], &k); err != nil {
					return fmt.Errorf("decoding request: %w", err)
				}
				key = []byte(k)
			}
			p.skipSpace()
			if !p.consume(':') {
				return p.syntaxErr("expected ':' after object key")
			}
			p.skipSpace()
			switch {
			case strings.EqualFold(bytesAsString(key), "record"):
				single, err = p.parseNumberArray()
			case strings.EqualFold(bytesAsString(key), "records"):
				sc.segs = sc.segs[:0]
				err = p.parseRecords()
			default:
				err = p.skipValue(1)
			}
			if err != nil {
				return err
			}
			p.skipSpace()
			if p.consume(',') {
				continue
			}
			if p.consume('}') {
				break
			}
			return p.syntaxErr("expected ',' or '}' in object")
		}
	}

	if single.off >= 0 {
		sc.records = append(sc.records, sc.values[single.off:single.off+single.n])
	}
	for _, s := range sc.segs {
		if s.off < 0 {
			sc.records = append(sc.records, nil)
			continue
		}
		sc.records = append(sc.records, sc.values[s.off:s.off+s.n])
	}
	return nil
}

// syntaxErr builds a decode error carrying the byte offset. Error paths
// only; allocates freely.
func (p *classifyParser) syntaxErr(msg string) error {
	return fmt.Errorf("decoding request: %s at offset %d", msg, p.pos)
}

// skipSpace advances past JSON whitespace.
func (p *classifyParser) skipSpace() {
	for p.pos < len(p.data) {
		switch p.data[p.pos] {
		case ' ', '\t', '\n', '\r':
			p.pos++
		default:
			return
		}
	}
}

// consume advances past c if it is the next byte.
func (p *classifyParser) consume(c byte) bool {
	if p.pos < len(p.data) && p.data[p.pos] == c {
		p.pos++
		return true
	}
	return false
}

// consumeLit advances past an exact literal (true/false/null).
func (p *classifyParser) consumeLit(lit string) bool {
	if len(p.data)-p.pos >= len(lit) && string(p.data[p.pos:p.pos+len(lit)]) == lit {
		p.pos += len(lit)
		return true
	}
	return false
}

// parseString scans one string, returning the raw bytes between the
// quotes and whether they contain escapes (only an unescaped key can be
// compared against a field name directly). It rejects what encoding/json
// rejects: raw control bytes below 0x20 and escapes other than \" \\ \/
// \b \f \n \r \t and \uXXXX.
func (p *classifyParser) parseString() ([]byte, bool, error) {
	if !p.consume('"') {
		return nil, false, p.syntaxErr("expected a string")
	}
	start := p.pos
	escaped := false
	for p.pos < len(p.data) {
		switch c := p.data[p.pos]; {
		case c == '"':
			s := p.data[start:p.pos]
			p.pos++
			return s, escaped, nil
		case c == '\\':
			escaped = true
			if !p.skipEscape() {
				return nil, false, p.syntaxErr("invalid escape in string")
			}
		case c < 0x20:
			return nil, false, p.syntaxErr("control character in string")
		default:
			p.pos++
		}
	}
	return nil, false, p.syntaxErr("unterminated string")
}

// skipEscape advances past the backslash escape at p.pos, reporting
// whether it is one JSON allows.
func (p *classifyParser) skipEscape() bool {
	if p.pos+1 >= len(p.data) {
		return false
	}
	switch p.data[p.pos+1] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		p.pos += 2
		return true
	case 'u':
		if p.pos+6 > len(p.data) {
			return false
		}
		for _, c := range p.data[p.pos+2 : p.pos+6] {
			if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
				return false
			}
		}
		p.pos += 6
		return true
	}
	return false
}

// skipValue advances past one JSON value of any type — the unknown-field
// path. depth is the nesting level of the container holding the value
// (the top-level object is 1); opening a container past maxNestingDepth
// is an error.
func (p *classifyParser) skipValue(depth int) error {
	p.skipSpace()
	if p.pos >= len(p.data) {
		return p.syntaxErr("unexpected end of body")
	}
	c := p.data[p.pos]
	if (c == '{' || c == '[') && depth >= maxNestingDepth {
		return p.syntaxErr("exceeded max nesting depth")
	}
	switch c {
	case '"':
		_, _, err := p.parseString()
		return err
	case '{':
		p.pos++
		p.skipSpace()
		if p.consume('}') {
			return nil
		}
		for {
			p.skipSpace()
			if _, _, err := p.parseString(); err != nil {
				return err
			}
			p.skipSpace()
			if !p.consume(':') {
				return p.syntaxErr("expected ':' after object key")
			}
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			p.skipSpace()
			if p.consume(',') {
				continue
			}
			if p.consume('}') {
				return nil
			}
			return p.syntaxErr("expected ',' or '}' in object")
		}
	case '[':
		p.pos++
		p.skipSpace()
		if p.consume(']') {
			return nil
		}
		for {
			if err := p.skipValue(depth + 1); err != nil {
				return err
			}
			p.skipSpace()
			if p.consume(',') {
				continue
			}
			if p.consume(']') {
				return nil
			}
			return p.syntaxErr("expected ',' or ']' in array")
		}
	case 't':
		if !p.consumeLit("true") {
			return p.syntaxErr("invalid literal")
		}
		return nil
	case 'f':
		if !p.consumeLit("false") {
			return p.syntaxErr("invalid literal")
		}
		return nil
	case 'n':
		if !p.consumeLit("null") {
			return p.syntaxErr("invalid literal")
		}
		return nil
	default:
		_, err := p.parseFloat()
		return err
	}
}

// parseNumberArray parses a [numbers...] value (or null) into the value
// arena and returns its span.
func (p *classifyParser) parseNumberArray() (recSeg, error) {
	if p.consumeLit("null") {
		return recSeg{off: -1}, nil
	}
	if !p.consume('[') {
		return recSeg{}, p.syntaxErr("expected an array of numbers")
	}
	off := len(p.sc.values)
	p.skipSpace()
	if p.consume(']') {
		return recSeg{off: off}, nil
	}
	for {
		p.skipSpace()
		v, err := p.parseFloat()
		if err != nil {
			return recSeg{}, err
		}
		if math.IsInf(v, 0) {
			return recSeg{}, p.syntaxErr("number out of float64 range")
		}
		p.sc.values = append(p.sc.values, v)
		p.skipSpace()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return recSeg{off: off, n: len(p.sc.values) - off}, nil
		}
		return recSeg{}, p.syntaxErr("expected ',' or ']' in array")
	}
}

// parseRecords parses the [[numbers...], ...] value (or null) of the
// "records" field.
func (p *classifyParser) parseRecords() error {
	if p.consumeLit("null") {
		return nil
	}
	if !p.consume('[') {
		return p.syntaxErr("expected an array of records")
	}
	p.skipSpace()
	if p.consume(']') {
		return nil
	}
	for {
		p.skipSpace()
		seg, err := p.parseNumberArray()
		if err != nil {
			return err
		}
		p.sc.segs = append(p.sc.segs, seg)
		p.skipSpace()
		if p.consume(',') {
			continue
		}
		if p.consume(']') {
			return nil
		}
		return p.syntaxErr("expected ',' or ']' in array")
	}
}

// pow10tab holds the exactly-representable powers of ten (10^0..10^22 have
// at most 22 factors of 5, so their mantissas fit float64's 53 bits).
var pow10tab = [23]float64{
	1, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// parseFloat scans one JSON number. The common case — at most 18
// significant digits with a decimal exponent within ±22 — is resolved with
// Clinger's fast path: the digits accumulate exactly in a uint64, the
// power of ten is exactly representable, and one IEEE multiply or divide
// is then correctly rounded, bit-identical to strconv. Everything else
// (huge mantissas, extreme exponents) falls back to strconv.ParseFloat
// over the scanned bytes. Only bad syntax is an error: a number beyond
// float64's range comes back as ±Inf, for the callers that store it to
// reject (encoding/json skips such a number in an unknown field).
func (p *classifyParser) parseFloat() (float64, error) {
	d := p.data
	start := p.pos
	neg := false
	if p.pos < len(d) && d[p.pos] == '-' {
		neg = true
		p.pos++
	}
	if p.pos >= len(d) || d[p.pos] < '0' || d[p.pos] > '9' {
		return 0, p.syntaxErr("invalid number")
	}
	var mant uint64
	exact := true // mant holds every significant digit scanned so far
	exp10 := 0
	if d[p.pos] == '0' {
		p.pos++
		if p.pos < len(d) && d[p.pos] >= '0' && d[p.pos] <= '9' {
			return 0, p.syntaxErr("invalid number") // JSON forbids leading zeros
		}
	} else {
		for p.pos < len(d) && d[p.pos] >= '0' && d[p.pos] <= '9' {
			if mant < 1e18 {
				mant = mant*10 + uint64(d[p.pos]-'0')
			} else {
				exact = false
			}
			p.pos++
		}
	}
	if p.pos < len(d) && d[p.pos] == '.' {
		p.pos++
		if p.pos >= len(d) || d[p.pos] < '0' || d[p.pos] > '9' {
			return 0, p.syntaxErr("invalid number")
		}
		for p.pos < len(d) && d[p.pos] >= '0' && d[p.pos] <= '9' {
			if mant < 1e18 {
				mant = mant*10 + uint64(d[p.pos]-'0')
				exp10--
			} else {
				exact = false
			}
			p.pos++
		}
	}
	if p.pos < len(d) && (d[p.pos] == 'e' || d[p.pos] == 'E') {
		p.pos++
		esign := 1
		if p.pos < len(d) && (d[p.pos] == '+' || d[p.pos] == '-') {
			if d[p.pos] == '-' {
				esign = -1
			}
			p.pos++
		}
		if p.pos >= len(d) || d[p.pos] < '0' || d[p.pos] > '9' {
			return 0, p.syntaxErr("invalid number")
		}
		ev := 0
		for p.pos < len(d) && d[p.pos] >= '0' && d[p.pos] <= '9' {
			if ev < 10000 {
				ev = ev*10 + int(d[p.pos]-'0')
			}
			p.pos++
		}
		exp10 += esign * ev
	}

	if exact && mant <= 1<<53 {
		var f float64
		switch {
		case exp10 == 0:
			f = float64(mant)
		case exp10 > 0 && exp10 <= 22:
			f = float64(mant) * pow10tab[exp10]
		case exp10 < 0 && exp10 >= -22:
			f = float64(mant) / pow10tab[-exp10]
		default:
			goto slow
		}
		if neg {
			f = -f
		}
		return f, nil
	}
slow:
	f, err := strconv.ParseFloat(bytesAsString(d[start:p.pos]), 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, p.syntaxErr("invalid number")
	}
	return f, nil
}

// bytesAsString views b as a string without copying. It is only handed to
// strconv.ParseFloat and strings.EqualFold, which do not retain their
// arguments, so aliasing a reusable request buffer is safe.
func bytesAsString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// jsonContentType is the shared Content-Type header value the hot path
// installs by direct map assignment — http.Header.Set would allocate a
// fresh one-element slice per request.
var jsonContentType = []string{"application/json"}

// appendClassifyResponse renders the /classify answer into buf with the
// same field set and two-space indentation writeJSON's json.Encoder
// produces, so clients (and the CI smoke greps) see byte-compatible
// output; the model block is the snapshot's pre-rendered info document.
func appendClassifyResponse(buf []byte, m *Model, classes []int, cached int) []byte {
	buf = append(buf, "{\n  \"n\": "...)
	buf = strconv.AppendInt(buf, int64(len(classes)), 10)
	buf = append(buf, ",\n  \"classes\": ["...)
	names := m.Schema.Classes
	for i, c := range classes {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n    "...)
		buf = appendJSONString(buf, names[c])
	}
	if len(classes) > 0 {
		buf = append(buf, "\n  "...)
	}
	buf = append(buf, "],\n  \"class_indices\": ["...)
	for i, c := range classes {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n    "...)
		buf = strconv.AppendInt(buf, int64(c), 10)
	}
	if len(classes) > 0 {
		buf = append(buf, "\n  "...)
	}
	buf = append(buf, "],\n  \"cached\": "...)
	buf = strconv.AppendInt(buf, int64(cached), 10)
	buf = append(buf, ",\n  \"model\": "...)
	buf = append(buf, m.infoBytes()...)
	buf = append(buf, "\n}\n"...)
	return buf
}

// appendJSONString appends s as a JSON string. Plain printable ASCII —
// every class name in practice — is appended directly; anything needing
// escapes defers to encoding/json so the escaping (including its HTML
// rules) cannot drift.
func appendJSONString(buf []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= 0x80 || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, err := json.Marshal(s)
			if err != nil {
				return append(buf, `""`...)
			}
			return append(buf, b...)
		}
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}
