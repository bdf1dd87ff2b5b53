package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// The JSON half of the payload codec. A transform's "data" array is the
// whole cost of a JSON request, so encoding/json never sees it: a small
// scanner walks the top-level object, parses the array by hand straight into
// a pooled []complex128 (splitJSONRequest, parseNumber) and hands
// encoding/json only the envelope — the body with the array replaced by
// null, a few dozen bytes — so op, dims and trace_id keep
// encoding/json's semantics to the letter (case-folded and duplicated keys,
// unknown fields, type errors). Replies are printed the same way
// (appendTransformJSON, appendJSONFloat), byte for byte what json.Encoder
// would emit.
//
// The floats themselves are the cost left, so both directions have an exact
// fast path in integer arithmetic and keep strconv only as the fallback for
// what lies outside it. parseDecimal takes a plain decimal token of at most
// 19 significant and 19 fraction digits — Clinger's single division, or one
// 128-by-64-bit division rounded half to even — and appendDecimal prints
// 1e-3 ≤ |v| < 1e15 by scaling v and its rounding interval exactly by a power
// of ten and picking the shortest digits in it, as strconv's shortest
// formatting (Ryū) does. Neither changes a bit: FuzzJSONFloat holds them to
// strconv.ParseFloat and encoding/json, and TestFloatFastPathsCoverBox16
// pins that they, not strconv, handle the benchmark's payload.
//
// Against encoding/json the scanner narrows the accepted input twice, and
// only for requests that would otherwise have been accepted: anything but
// white space after the closing brace, and a second "data" member, are
// errors (DESIGN.md §11).

// payloadBuf receives a transform's interleaved re,im floats as complex
// values in a pooled buffer. The first buffer is sized for first values — the
// caller's estimate from the length of the body, so that a usual payload
// lands in one buffer — and doubles from there. At most limit values are
// stored however many the array holds; the count still runs, so that an
// over-long array is reported as a length mismatch.
type payloadBuf struct {
	data   []complex128
	first  int     // capacity asked for first
	limit  int     // most values ever stored
	floats int     // floats seen, stored or not
	re     float64 // the pending real part when floats is odd
}

func (p *payloadBuf) add(v float64) {
	k := p.floats
	p.floats++
	if k&1 == 0 {
		p.re = v
		return
	}
	i := k >> 1
	if i >= p.limit {
		return
	}
	if i == cap(p.data) {
		p.data = complexPool.grow(p.data, min(max(2*i, p.first, 1), p.limit))
	}
	p.data = append(p.data, complex(p.re, v))
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString returns the index just past the JSON string whose opening quote
// is b[i]. It only finds the end: what the string holds is encoding/json's
// to judge.
func scanString(b []byte, i int) (int, error) {
	for j := i + 1; j < len(b); j++ {
		switch b[j] {
		case '\\':
			j++
		case '"':
			return j + 1, nil
		}
	}
	return 0, fmt.Errorf("unterminated string")
}

// skipValue returns the index just past the JSON value that starts at b[i],
// finding its end by quotes and brackets alone; the value reaches
// encoding/json inside the envelope and is validated there.
func skipValue(b []byte, i int) (int, error) {
	if i < len(b) && b[i] == '"' {
		return scanString(b, i)
	}
	if i < len(b) && (b[i] == '{' || b[i] == '[') {
		depth := 0
		for j := i; j < len(b); j++ {
			switch b[j] {
			case '"':
				end, err := scanString(b, j)
				if err != nil {
					return 0, err
				}
				j = end - 1
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return j + 1, nil
				}
			}
		}
		return 0, fmt.Errorf("unexpected end of input")
	}
	j := i
	for j < len(b) && !strings.ContainsRune(",}] \t\n\r", rune(b[j])) {
		j++
	}
	if j == i {
		return 0, fmt.Errorf("want a value at offset %d", i)
	}
	return j, nil
}

// isDataKey reports whether the quoted object key tok names the data member
// the way encoding/json matches field names: after unescaping, and ignoring
// case.
func isDataKey(tok []byte) bool {
	if bytes.IndexByte(tok, '\\') < 0 {
		return len(tok) == 6 && tok[1]|0x20 == 'd' && tok[2]|0x20 == 'a' && tok[3]|0x20 == 't' && tok[4]|0x20 == 'a'
	}
	var key string
	return json.Unmarshal(tok, &key) == nil && strings.EqualFold(key, "data")
}

// splitJSONRequest walks the top-level object of a JSON request. The numbers
// of a "data" array go to dst — or, with a nil dst, are skipped unconverted,
// which is all the router's PeekRoute needs — and the returned envelope is
// the body with that array replaced by null, for encoding/json to decode.
// A body without a data array is its own envelope; otherwise the envelope is
// appended to scratch.
func splitJSONRequest(body []byte, dst *payloadBuf, scratch []byte) (envelope []byte, err error) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return nil, fmt.Errorf("want a JSON object")
	}
	i = skipSpace(body, i+1)
	dataAt, dataEnd, seenData := -1, -1, false
	for i >= len(body) || body[i] != '}' {
		if i >= len(body) || body[i] != '"' {
			return nil, fmt.Errorf("want an object key at offset %d", i)
		}
		keyEnd, err := scanString(body, i)
		if err != nil {
			return nil, err
		}
		isData := isDataKey(body[i:keyEnd])
		i = skipSpace(body, keyEnd)
		if i >= len(body) || body[i] != ':' {
			return nil, fmt.Errorf("want ':' at offset %d", i)
		}
		i = skipSpace(body, i+1)
		switch {
		case isData && seenData:
			return nil, fmt.Errorf("duplicate \"data\" member at offset %d", i)
		case isData && i < len(body) && body[i] == '[':
			dataAt = i
			if dst != nil {
				i, err = parseNumberArray(body, i, dst)
			} else if n := bytes.IndexByte(body[i:], ']'); n >= 0 {
				i += n + 1
			} else {
				err = fmt.Errorf("unterminated data array")
			}
			if err != nil {
				return nil, err
			}
			dataEnd = i
		default:
			// Any other value, "data": null or a mistyped data included, is
			// encoding/json's to accept or reject.
			if i, err = skipValue(body, i); err != nil {
				return nil, err
			}
		}
		seenData = seenData || isData
		// A comma before the closing brace passes here and fails in
		// encoding/json, which sees it in the envelope.
		i = skipSpace(body, i)
		if i < len(body) && body[i] == ',' {
			i = skipSpace(body, i+1)
		} else if i >= len(body) || body[i] != '}' {
			return nil, fmt.Errorf("want ',' or '}' at offset %d", i)
		}
	}
	i++
	if i = skipSpace(body, i); i != len(body) {
		return nil, fmt.Errorf("unexpected bytes after the request object at offset %d", i)
	}
	if dataAt < 0 {
		return body, nil
	}
	envelope = append(scratch, body[:dataAt]...)
	envelope = append(envelope, "null"...)
	return append(envelope, body[dataEnd:]...), nil
}

// parseNumberArray parses the JSON array of numbers whose '[' is b[i] into
// dst and returns the index just past its ']'. A null element counts as 0,
// which is what encoding/json makes of it in a []float64.
func parseNumberArray(b []byte, i int, dst *payloadBuf) (int, error) {
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, nil
	}
	for {
		if i+4 <= len(b) && b[i] == 'n' && string(b[i:i+4]) == "null" {
			dst.add(0)
			i += 4
		} else {
			v, end, err := parseNumber(b, i)
			if err != nil {
				return 0, err
			}
			dst.add(v)
			i = end
		}
		i = skipSpace(b, i)
		if i >= len(b) {
			return 0, fmt.Errorf("unterminated data array")
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i + 1, nil
		default:
			return 0, fmt.Errorf("invalid character %q in data array at offset %d", b[i], i)
		}
	}
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// parseNumber parses the number that starts at b[i] and returns it with the
// index just past it. It is the package's one float parser: the token must
// match the RFC 8259 grammar, and its value is strconv.ParseFloat's — the two
// steps encoding/json takes, so every float is bit-identical to what it
// would have decoded. Most tokens take parseDecimal's exact fast path, whose
// value is the same; the rest are scanned again here, and a well-formed one
// goes to strconv.ParseFloat. Out-of-range numbers (1e400) are errors; JSON
// has no spelling for NaN or Inf, so what is returned is finite.
func parseNumber(b []byte, i int) (float64, int, error) {
	if v, j, ok := parseDecimal(b, i); ok {
		return v, j, nil
	}
	j := i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && isDigit(b[j]):
		for j++; j < len(b) && isDigit(b[j]); j++ {
		}
	default:
		return 0, 0, fmt.Errorf("want a number at offset %d", i)
	}
	if j < len(b) && b[j] == '.' {
		j++
		if j >= len(b) || !isDigit(b[j]) {
			return 0, 0, fmt.Errorf("malformed number at offset %d", i)
		}
		for j++; j < len(b) && isDigit(b[j]); j++ {
		}
	}
	if j < len(b) && b[j]|0x20 == 'e' {
		j++
		if j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j >= len(b) || !isDigit(b[j]) {
			return 0, 0, fmt.Errorf("malformed number at offset %d", i)
		}
		for j++; j < len(b) && isDigit(b[j]); j++ {
		}
	}
	v, err := strconv.ParseFloat(string(b[i:j]), 64)
	if err != nil {
		return 0, 0, fmt.Errorf("number at offset %d does not fit a float64", i)
	}
	return v, j, nil
}

// pow10 holds 10^k for k ≤ 19, the powers a uint64 holds; pow10f the same
// powers as float64s, each exact (every power up to 10^22 is).
var (
	pow10  [20]uint64
	pow10f [20]float64
)

func init() {
	pow10[0], pow10f[0] = 1, 1
	for k := 1; k < len(pow10); k++ {
		pow10[k], pow10f[k] = 10*pow10[k-1], 10*pow10f[k-1]
	}
}

// parseDecimal is parseNumber's fast path: it checks the grammar and gathers
// the digits in one pass, and takes a token only if it has no exponent part,
// at most 19 significant digits (those from the first non-zero one on) and
// at most 19 fraction digits. The token's value is then m/10^k for the digits
// m < 10^19 < 2^64 and the fraction-digit count k, and that quotient is
// rounded exactly once:
//   - for m < 2^53, m and 10^k are both exact float64s, so one IEEE division
//     is the correctly rounded quotient (Clinger's fast path);
//   - otherwise divWide divides in integers and rounds half to even.
//
// Anything else, a malformed token included, reports ok false and is
// parseNumber's to judge.
func parseDecimal(b []byte, i int) (v float64, end int, ok bool) {
	var sign uint64 // the sign bit of the result
	if i < len(b) && b[i] == '-' {
		sign = 1 << 63
	}
	j := i + int(sign>>63)
	var m uint64
	digits := 0 // significant digits
	if j < len(b) && b[j] == '0' {
		j++
	} else {
		start := j
		if j, m = digitRun(b, j, 0); j == start {
			return 0, 0, false
		}
		digits = j - start
	}
	k := 0
	if j < len(b) && b[j] == '.' {
		j++
		start := j
		if m == 0 {
			for j < len(b) && b[j] == '0' {
				j++
			}
		}
		first := j
		j, m = digitRun(b, j, m)
		digits += j - first
		if k = j - start; k == 0 {
			return 0, 0, false
		}
	}
	if digits > 19 || k >= len(pow10) || j < len(b) && b[j]|0x20 == 'e' {
		return 0, 0, false
	}
	if m < 1<<53 {
		v = float64(m) / pow10f[k]
	} else {
		v = divWide(m, pow10[k])
	}
	return math.Float64frombits(math.Float64bits(v) | sign), j, true
}

// digitRun appends the run of decimal digits at b[j] to m and returns the
// index past the run with the new m, which wraps past 19 digits. Eight
// digits at a time are tested and converted in one 64-bit word (Lemire's
// SWAR method), the rest one by one.
func digitRun(b []byte, j int, m uint64) (int, uint64) {
	for ; j+8 <= len(b); j += 8 {
		w := binary.LittleEndian.Uint64(b[j:])
		// Every byte is in '0'…'9' when its high nibble is 3 and adding 6
		// carries into no high nibble.
		if w&0xf0f0f0f0f0f0f0f0|(w+0x0606060606060606)&0xf0f0f0f0f0f0f0f0>>4 != 0x3333333333333333 {
			break
		}
		w = (w & 0x0f0f0f0f0f0f0f0f) * 2561 >> 8
		w = (w & 0x00ff00ff00ff00ff) * 6553601 >> 16
		m = m*100000000 + (w&0x0000ffff0000ffff)*42949672960001>>32
	}
	for ; j < len(b) && isDigit(b[j]); j++ {
		m = m*10 + uint64(b[j]-'0')
	}
	return j, m
}

// divWide returns m/d rounded to the nearest float64, ties to even, for
// 2^53 ≤ m and 1 ≤ d ≤ 10^19: a quotient between 2^53/10^19 and 2^64, so
// never subnormal. Both operands are shifted to their top bit, and one
// 128-by-64-bit division yields a 64-bit quotient q with the exact
// remainder: q's top 53 bits are the mantissa, its next bit the rounding
// bit, and the bits below with the remainder say whether the discarded part
// is more than half.
func divWide(m, d uint64) float64 {
	lm, ld := bits.LeadingZeros64(m), bits.LeadingZeros64(d)
	x, y := m<<lm, d<<ld
	// m/d = x/y · 2^(ld-lm), and x/y lies in (1/2, 2).
	e := ld - lm - 64
	hi, lo := x, uint64(0)
	if x >= y {
		hi, lo = x>>1, x<<63
		e++
	}
	q, r := bits.Div64(hi, lo, y) // m/d = (q + r/y) · 2^e, q ≥ 2^63
	mant, rest := q>>11, q&(1<<11-1)
	e += 11
	if rest > 1<<10 || rest == 1<<10 && (r != 0 || mant&1 == 1) {
		mant++
		if mant == 1<<53 {
			mant >>= 1
			e++
		}
	}
	// mant · 2^e with mant in [2^52, 2^53): the biased exponent is e+52+1023.
	return math.Float64frombits(uint64(e+1075)<<52 | mant&(1<<52-1))
}

// decodeJSON parses and validates a JSON request. Its payload comes back as
// complex values in a complexPool buffer the caller owns; an error returns
// no buffer.
func decodeJSON(body []byte, maxElements int) (*Request, []complex128, error) {
	if maxElements <= 0 {
		maxElements = DefaultMaxElements
	}
	// A complex value takes at least four bytes of JSON ("0,0,"), so the
	// body's length bounds the buffer as well as the element budget does; at
	// full precision it takes about forty.
	dst := payloadBuf{first: len(body) / 32, limit: min(maxElements, len(body)/4)}
	req, err := decodeEnvelope(body, maxElements, &dst)
	if err != nil {
		complexPool.put(dst.data)
		return nil, nil, err
	}
	return req, dst.data, nil
}

// envelopeDecode is everything decoding one envelope allocates, in one
// piece: the request, the backing of its dims (encoding/json fills a slice
// within its capacity before it grows it), the reader encoding/json wants,
// and room for the envelope itself.
type envelopeDecode struct {
	req      Request
	dims     [3]int
	reader   bytes.Reader
	envelope [192]byte
}

func decodeEnvelope(body []byte, maxElements int, dst *payloadBuf) (*Request, error) {
	d := new(envelopeDecode)
	envelope, err := splitJSONRequest(body, dst, d.envelope[:0])
	if err != nil {
		return nil, fmt.Errorf("malformed JSON request: %w", err)
	}
	req := &d.req
	req.Dims = d.dims[:0]
	d.reader.Reset(envelope)
	dec := json.NewDecoder(&d.reader)
	dec.DisallowUnknownFields()
	if err := dec.Decode(req); err != nil {
		return nil, fmt.Errorf("malformed JSON request: %w", err)
	}
	floats, err := req.validateHeader(maxElements)
	if err != nil {
		return nil, err
	}
	if dst.floats != floats {
		return nil, dataLengthError(dst.floats, floats, req.Batch)
	}
	return req, nil
}

// appendJSONFloat appends the finite v exactly as encoding/json renders a
// float64 — the package's one float printer: strconv.AppendFloat's shortest
// round-trip digits, in 'e' format below 1e-6 and from 1e21 up, in 'f'
// format between. Most values take appendDecimal's exact fast path; the
// rest go to strconv.AppendFloat.
func appendJSONFloat(b []byte, v float64) []byte {
	if out, ok := appendDecimal(b, v); ok {
		return out
	}
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9, as in encoding/json.
		if n := len(b); n >= 4 && b[n-4] == 'e' && (b[n-3] == '-' || b[n-3] == '+') && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// pow10from3 holds 10^-3 … 10^15 as float64s. The negative powers are not
// exact, but each rounds up and no float64 lies between it and the power it
// stands for, so |v| >= pow10from3[e+3] is |v| >= 10^e exactly.
var pow10from3 = [...]float64{1e-3, 1e-2, 1e-1, 1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// appendDecimal is appendJSONFloat's fast path, for 1e-3 ≤ |v| < 1e15 and a
// mantissa that is not a power of two; it reports ok false for every other
// v. Such a v is M·2^-s with M < 2^53 and 3 ≤ s ≤ 62, and its rounding
// interval — every real that parses back to v — is v ± 2^-s/2 (a power-of-two
// mantissa would make it lopsided), closed when M is even (round half to
// even parses a tie to the even mantissa). For the power 10^k (k ≤ 19) that
// gives v 17 integer digits, v·10^k and the interval's ends are exact in
// 128 bits: (2M ± 1)·10^k over 2^(s+1). The shortest decimal that parses
// back to v is then the one with the most trailing zeros in the integer
// interval, and where two of those fit, the nearer to v, half to even — what
// strconv's shortest formatting picks.
func appendDecimal(b []byte, v float64) ([]byte, bool) {
	vb := math.Float64bits(v)
	abs := math.Abs(v)
	if vb&(1<<52-1) == 0 || !(abs >= 1e-3 && abs < 1e15) {
		return b, false
	}
	exp := int(vb>>52&0x7ff) - 1023 // 2^exp ≤ |v| < 2^(exp+1)
	// e10 = floor(log10 |v|) is floor(exp·log10 2) or one more.
	e10 := exp * 78913 >> 18
	if abs >= pow10from3[e10+4] {
		e10++
	}
	k := 16 - e10
	sh := uint(52 - exp + 1) // fraction bits of 2M·10^k
	mant := vb&(1<<52-1) | 1<<52
	hi, lo := bits.Mul64(2*mant, pow10[k])
	mask := uint64(1)<<sh - 1
	// v·10^k: integer part x, fraction xf over 2^sh.
	x, xf := hi<<(64-sh)|lo>>sh, lo&mask
	// The interval's ends, as the least and greatest integers in it.
	llo, borrow := bits.Sub64(lo, pow10[k], 0)
	low := (hi-borrow)<<(64-sh) | llo>>sh
	if llo&mask != 0 || mant&1 == 1 {
		low++
	}
	ulo, carry := bits.Add64(lo, pow10[k], 0)
	high := (hi+carry)<<(64-sh) | ulo>>sh
	if ulo&mask == 0 && mant&1 == 1 {
		high--
	}
	// The most trailing zeros: the largest j with a multiple of 10^j in
	// [low, high].
	j, q := 0, x // q = x / 10^j
	for a, z := low-1, high; z/10 > a/10; a, z = a/10, z/10 {
		j++
		q /= 10
	}
	// Round to the multiple of 10^j nearest to v·10^k, half to even; the
	// interval is symmetric about v, so that multiple lies in it.
	if j == 0 {
		if half := uint64(1) << (sh - 1); xf > half || xf == half && q&1 == 1 {
			q++
		}
	} else {
		p := pow10[j]
		if r := x - q*p; r > p/2 || r == p/2 && (xf != 0 || q&1 == 1) {
			q++
		}
	}
	return appendDigits(b, v < 0, q, j-k), true
}

// digitPairs holds "00" … "99", for printing two digits at a time.
const digitPairs = "00010203040506070809101112131415161718192021222324252627282930313233343536373839404142434445464748495051525354555657585960616263646566676869707172737475767778798081828384858687888990919293949596979899"

// appendDigits appends q·10^e in 'f' format, negative when neg is set, for
// q·10^e < 10^17 and e ≥ -19. The digits are written from the right, two at
// a time, into one buffer that is appended whole.
func appendDigits(b []byte, neg bool, q uint64, e int) []byte {
	if e > 0 {
		q, e = q*pow10[e], 0
	}
	var buf [24]byte
	n := len(buf)
	put2 := func(d uint64) {
		n -= 2
		buf[n], buf[n+1] = digitPairs[2*d], digitPairs[2*d+1]
	}
	// The -e fraction digits, with the zeros that lead them when q has
	// fewer, then the point.
	f := -e
	for ; f >= 2; f -= 2 {
		put2(q % 100)
		q /= 100
	}
	if f == 1 {
		n--
		buf[n] = byte('0' + q%10)
		q /= 10
	}
	if e < 0 {
		n--
		buf[n] = '.'
	}
	// The integer digits, "0" if there are none.
	for ; q >= 100; q /= 100 {
		put2(q % 100)
	}
	if q >= 10 {
		put2(q)
	} else {
		n--
		buf[n] = byte('0' + q)
	}
	if neg {
		n--
		buf[n] = '-'
	}
	return append(b, buf[n:]...)
}

// jsonFloatMax is the longest rendering of one float64 (sign, 17 digits and
// a four-character exponent, or a fraction with five leading zeros) plus its
// comma.
const jsonFloatMax = 26

// transformJSONSize bounds the length of a transform's JSON reply.
func transformJSONSize(values int) int {
	return 2*values*jsonFloatMax + 64
}

// appendTransformJSON appends a transform's reply: byte for byte what
// json.NewEncoder emits for Response{Data, BatchSize, TraceID}, trailing
// newline included. data must not be empty, batchSize not zero, and traceID
// empty or a valid trace ID (nothing in it needs escaping). JSON cannot
// carry a non-finite value, so an overflowed transform is an error.
func appendTransformJSON(out []byte, data []complex128, batchSize int, traceID string) ([]byte, error) {
	out = append(out, `{"data":[`...)
	for i, c := range data {
		re, im := real(c), imag(c)
		if !finite(re) || !finite(im) {
			return nil, fmt.Errorf("result element %d is not finite", i)
		}
		if i > 0 {
			out = append(out, ',')
		}
		out = appendJSONFloat(out, re)
		out = append(out, ',')
		out = appendJSONFloat(out, im)
	}
	out = append(out, `],"batch_size":`...)
	out = strconv.AppendInt(out, int64(batchSize), 10)
	if traceID != "" {
		out = append(out, `,"trace_id":"`...)
		out = append(out, traceID...)
		out = append(out, '"')
	}
	return append(out, "}\n"...), nil
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
