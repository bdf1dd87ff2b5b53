package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
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
// would have decoded. Out-of-range numbers (1e400) are errors; JSON has no
// spelling for NaN or Inf, so what is returned is finite.
func parseNumber(b []byte, i int) (float64, int, error) {
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
// float64 — the package's one float printer.
func appendJSONFloat(b []byte, v float64) []byte {
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
