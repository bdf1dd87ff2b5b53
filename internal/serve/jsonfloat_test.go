package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/fft"
)

// numberToken is RFC 8259's number grammar.
var numberToken = regexp.MustCompile(`^-?(?:0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)

// referenceParseNumber is the float parser encoding/json defines: the longest
// token at the start of b that the grammar matches, then
// strconv.ParseFloat. Like encoding/json's scanner, and like parseNumber, it
// commits to a fraction at a '.' and to an exponent at an 'e', so a token
// that stops right before one it could not take is malformed, not short.
func referenceParseNumber(b []byte) (v float64, end int, ok bool) {
	loc := numberToken.FindSubmatchIndex(b)
	if loc == nil {
		return 0, 0, false
	}
	end = loc[1]
	frac, exp := loc[2] >= 0, loc[4] >= 0
	if end < len(b) && (b[end] == '.' && !frac && !exp || b[end]|0x20 == 'e' && !exp) {
		return 0, 0, false
	}
	v, err := strconv.ParseFloat(string(b[:end]), 64)
	return v, end, err == nil
}

// checkParse holds parseNumber to the reference on one token.
func checkParse(t *testing.T, tok []byte) {
	t.Helper()
	got, end, err := parseNumber(tok, 0)
	want, wantEnd, ok := referenceParseNumber(tok)
	switch {
	case (err == nil) != ok:
		t.Fatalf("%q: parse error %v, reference accepts: %v", tok, err, ok)
	case ok && (end != wantEnd || math.Float64bits(got) != math.Float64bits(want)):
		t.Fatalf("%q: parsed %v (%#x) ending at %d, reference %v (%#x) ending at %d",
			tok, got, math.Float64bits(got), end, want, math.Float64bits(want), wantEnd)
	}
}

// checkPrint holds appendJSONFloat to encoding/json on one finite value, and
// the parser to the printer: what is printed parses back to the same bits.
func checkPrint(t *testing.T, v float64) {
	t.Helper()
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	got := appendJSONFloat([]byte("x"), v)[1:]
	if !bytes.Equal(got, want) {
		t.Fatalf("%v (%#x): printed %s, encoding/json %s", v, math.Float64bits(v), got, want)
	}
	if back, end, err := parseNumber(got, 0); err != nil || end != len(got) || math.Float64bits(back) != math.Float64bits(v) {
		t.Fatalf("%v: printed %s parses back to %v, end %d, error %v", v, got, back, end, err)
	}
	checkParse(t, got)
}

// floatBoundaries are the tokens either fast path must get right or leave
// alone: fast says whether parseDecimal takes the token, and, for a value
// inside the float64 range, printFast whether appendDecimal takes it.
var floatBoundaries = []struct {
	tok             string
	fast, printFast bool
}{
	// Around 2^53, where Clinger's division ends and divWide begins; 2^53+1
	// and 2^53+3 are ties, to the even mantissa below and above.
	{"9007199254740991", true, false},
	{"9007199254740992", true, false},
	{"9007199254740993", true, false},
	{"9007199254740995", true, false},
	{"900719925474099.3", true, true},
	{"900719925474099.5", true, true},
	{"90071992547409.93", true, true},
	{"9007199254740993.0", true, false},
	{"9007199254740993e0", false, false},
	// 19 against 20 significant digits, and 19 against 20 fraction digits.
	{"1234567890123456789", true, false},
	{"12345678901234567890", false, false},
	{"18446744073709551616", false, false},
	{"1.234567890123456789", true, true},
	{"1.2345678901234567891", false, true},
	{"0.1234567890123456789", true, true},
	{"0.12345678901234567891", false, true},
	{"0.1000000000000000000", true, true},
	{"0.10000000000000000000", false, true},
	{"0.0000000000000000001", true, false},
	{"0.00000000000000000001", false, false},
	{"-0.0009999999999999998", true, false},
	// Zeros.
	{"0", true, false},
	{"-0", true, false},
	{"0.0", true, false},
	{"-0.0", true, false},
	{"0e0", false, false},
	// Both sides of encoding/json's switches to 'e' format, and of the fast
	// printer's window [1e-3, 1e15).
	{"0.000001", true, false},
	{"9.999999999999997e-7", false, false},
	{"0.001", true, true},
	{"0.0009999999999999998", true, false},
	{"999999999999999.9", true, true},
	{"1000000000000000", true, false},
	{"999999999999999900000", false, false},
	{"1e21", false, false},
	// Subnormals, and powers of two, whose rounding interval is lopsided.
	{"5e-324", false, false},
	{"2.225073858507201e-308", false, false},
	{"0.5", true, false},
	{"0.001953125", true, false},
	{"1024", true, false},
	{"562949953421312", true, false},
	// Ties in the shortest digits: 2^49 + 1/4 and 2^49 + 3/4.
	{"562949953421312.25", true, true},
	{"562949953421312.75", true, true},
	{"1.7976931348623157e308", false, false},
	{"-1.7976931348623157e308", false, false},
}

// TestFloatCodecBoundaries runs the boundary tokens through both directions
// and pins which ones each fast path takes, so that a change which sends
// them to strconv, or takes one it cannot round, shows here.
func TestFloatCodecBoundaries(t *testing.T) {
	for _, c := range floatBoundaries {
		tok := []byte(c.tok)
		checkParse(t, tok)
		if _, _, fast := parseDecimal(tok, 0); fast != c.fast {
			t.Errorf("%s: parseDecimal takes it: %v, want %v", c.tok, fast, c.fast)
		}
		v, err := strconv.ParseFloat(c.tok, 64)
		if err != nil {
			t.Fatal(err)
		}
		checkPrint(t, v)
		if _, fast := appendDecimal(nil, v); fast != c.printFast {
			t.Errorf("%s: appendDecimal takes it: %v, want %v", c.tok, fast, c.printFast)
		}
		for _, next := range []float64{math.Nextafter(v, math.Inf(1)), math.Nextafter(v, math.Inf(-1))} {
			if finite(next) {
				checkPrint(t, next)
			}
		}
	}
}

// TestFloatCodecRandom runs both directions over values drawn the ways
// payloads are: uniform and normal values as a client sends them, normal
// values over thirty decades, and arbitrary bit patterns; and parses each
// value printed to a random number of fraction digits as well.
func TestFloatCodecRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 25000
	if testing.Short() {
		n = 2500
	}
	for i := 0; i < n; i++ {
		var v float64
		switch i % 4 {
		case 0:
			v = 2*rng.Float64() - 1
		case 1:
			v = rng.NormFloat64()
		case 2:
			v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-10))
		default:
			if v = math.Float64frombits(rng.Uint64()); !finite(v) {
				v = 0
			}
		}
		checkPrint(t, v)
		checkParse(t, strconv.AppendFloat(nil, v, 'f', rng.Intn(23), 64))
	}
}

// FuzzJSONFloat holds both directions to their references: any finite bit
// pattern prints byte for byte as encoding/json prints it and parses back to
// itself, and any token parses bit for bit as strconv.ParseFloat parses the
// token the grammar accepts, or is rejected exactly when the grammar
// rejects it.
func FuzzJSONFloat(f *testing.F) {
	for _, c := range floatBoundaries {
		v, err := strconv.ParseFloat(c.tok, 64)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(math.Float64bits(v), []byte(c.tok))
	}
	for _, tok := range []string{"", "-", "1.", "1.e5", "1e", "1e+", "-01", "1.5.3", "1e5e", "+1", ".5", "01.5", "1e400", "-1e-400", "1E-2]"} {
		f.Add(uint64(0), []byte(tok))
	}
	f.Fuzz(func(t *testing.T, u uint64, tok []byte) {
		if v := math.Float64frombits(u); finite(v) {
			checkPrint(t, v)
		}
		checkParse(t, tok)
	})
}

// TestFloatFastPathsCoverBox16 counts what the fast paths take of the
// benchmark's JSON shape: the floats of a box16 request as parseDecimal
// sees them, and the floats of its transform as appendDecimal sees them.
// Both must stay at 99.9 % or more, so that a change which quietly sends
// the payload back to strconv fails here.
func TestFloatFastPathsCoverBox16(t *testing.T) {
	body, req := box16Request(t)
	cover := func(what string, fast, total int) {
		t.Helper()
		t.Logf("%s: fast path took %d of %d floats", what, fast, total)
		if total != len(req.Data) || 1000*fast < 999*total {
			t.Errorf("%s: fast path took %d of %d floats, want ≥ 99.9 %% of %d", what, fast, total, len(req.Data))
		}
	}

	fast, total := 0, 0
	i := bytes.Index(body, []byte(`"data":[`)) + len(`"data":[`)
	for body[i] != ']' {
		if _, _, ok := parseDecimal(body, i); ok {
			fast++
		}
		_, end, err := parseNumber(body, i)
		if err != nil {
			t.Fatal(err)
		}
		total++
		i = end
		if body[i] == ',' {
			i++
		}
	}
	cover("parse request", fast, total)

	fast, total = 0, 0
	for _, v := range referenceTransform(req.Dims, req.Data, fft.Forward, false) {
		if _, ok := appendDecimal(nil, v); ok {
			fast++
		}
		total++
	}
	cover("print reply", fast, total)
}

// box16Request is box16's JSON body and the request it holds.
func box16Request(tb testing.TB) ([]byte, *Request) {
	body, _ := box16(tb)
	var req Request
	if err := json.Unmarshal(body, &req); err != nil {
		tb.Fatal(err)
	}
	return body, &req
}

// BenchmarkJSONDecodeBox16 times the JSON request decoder on the
// benchmark's shape, in ns per float of the payload.
func BenchmarkJSONDecodeBox16(b *testing.B) {
	body, req := box16Request(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, data, err := decodeJSON(body, 0)
		if err != nil {
			b.Fatal(err)
		}
		complexPool.put(data)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(req.Data)), "ns/float")
}

// BenchmarkJSONRenderBox16 times the JSON reply renderer on the transform
// of the benchmark's shape, in ns per float of the reply.
func BenchmarkJSONRenderBox16(b *testing.B) {
	_, req := box16Request(b)
	reply := toComplex(referenceTransform(req.Dims, req.Data, fft.Forward, false))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := appendTransformJSON(bytePool.get(transformJSONSize(len(reply)))[:0], reply, 1, "")
		if err != nil {
			b.Fatal(err)
		}
		bytePool.put(out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(2*len(reply)), "ns/float")
}
