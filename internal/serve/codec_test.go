package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// referenceDecodeJSON is the JSON decoder the server used before the payload
// codec: encoding/json over the whole body, then Validate. The hand-written
// decoder is held to it.
func referenceDecodeJSON(body []byte, maxElements int) (*Request, error) {
	var req Request
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	if err := req.Validate(maxElements); err != nil {
		return nil, err
	}
	return &req, nil
}

// narrowed reports whether a body encoding/json accepts falls under one of
// the two documented narrowings: bytes other than white space after the
// request object, or more than one top-level member that encoding/json
// would store in Request.Data.
func narrowed(body []byte) (trailing, duplicateData bool) {
	dec := json.NewDecoder(bytes.NewReader(body))
	var top map[string]json.RawMessage
	if err := dec.Decode(&top); err != nil {
		return false, false
	}
	rest := body[dec.InputOffset():]
	trailing = strings.TrimLeft(string(rest), " \t\r\n") != ""

	dec = json.NewDecoder(bytes.NewReader(body))
	dec.Token() // {
	members := 0
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			break
		}
		if k, ok := key.(string); ok && strings.EqualFold(k, "data") {
			members++
		}
		var skip json.RawMessage
		if dec.Decode(&skip) != nil {
			break
		}
	}
	return trailing, members > 1
}

func sameFloats(t *testing.T, got []complex128, want []float64) {
	t.Helper()
	if 2*len(got) != len(want) {
		t.Fatalf("decoded %d complex values, reference %d floats", len(got), len(want))
	}
	for i, v := range got {
		if math.Float64bits(real(v)) != math.Float64bits(want[2*i]) ||
			math.Float64bits(imag(v)) != math.Float64bits(want[2*i+1]) {
			t.Fatalf("value %d = %v, reference (%v, %v)", i, v, want[2*i], want[2*i+1])
		}
	}
}

// FuzzJSONRequestDecode holds the hand-written JSON decoder to the
// reference: whatever it accepts the reference accepts, with every field and
// every float identical; whatever the reference accepts and it rejects is one
// of the two documented narrowings; it never panics; and its payload buffer
// never outgrows what the body and the element budget allow.
func FuzzJSONRequestDecode(f *testing.F) {
	valid := &Request{Dims: []int{2, 2}, Batch: 2, Scale: true, Sign: 1, DeadlineMillis: 5,
		TraceID: "0123456789abcdef", Data: []float64{1, -2.5, 3e-7, 4e21, 0.1, 1e-320, -0.0, 7, 8, 9, 10, 11, 12, 13, 14, 15}}
	marshalled, err := json.Marshal(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(marshalled)
	for n := 1; n < len(marshalled); n += 7 {
		f.Add(marshalled[:n]) // truncations
	}
	for _, seed := range []string{
		`{"data":[1,2,3,4],"dims":[2]}`,
		"\t{ \"dims\" : [ 2 ] ,\r\n \"data\" : [ 1 , 2 ,\n 3 , 4 ] } \n",
		`{"dims":[1],"data":[1e2,-1E-2]}`,
		`{"dims":[1],"data":[1.5e+3,0e0]}`,
		`{"dims":[1],"data":[-0,0]}`,
		`{"dims":[1],"data":[1e400,0]}`,
		`{"dims":[1],"data":[1e-400,0]}`,
		`{"dims":[1],"data":[01,0]}`,
		`{"dims":[1],"data":[1.,0]}`,
		`{"dims":[1],"data":[.5,0]}`,
		`{"dims":[1],"data":[+1,0]}`,
		`{"dims":[1],"data":[1,null]}`,
		`{"dims":[1],"data":[1,"2"]}`,
		`{"dims":[1],"data":[1,[2]]}`,
		`{"dims":[1],"data":[1,2,]}`,
		`{"dims":[1],"data":[]}`,
		`{"dims":[1],"data":null}`,
		`{"dims":[1],"data":"x"}`,
		`{"dims":[1],"DATA":[1,2]}`,
		`{"dims":[1],"data":[1,2]}`,
		`{"dims":[1],"data":[1,2],"data":[3,4]}`,
		`{"dims":[1],"data":[1,2],"Data":null}`,
		`{"dims":[1],"data":[1,2]} trailing`,
		`{"dims":[1],"data":[1,2]}{"dims":[1]}`,
		`{"dims":[1],"data":[1,2],"trace_id":"aaaaaaaaaaaaaaaa","trace_id":"bbbbbbbbbbbbbbbb"}`,
		`{"op":"\"data\":[1,2]","dims":[1],"data":[1,2]}`,
		`{"op":"pipeline","pipeline":{"ecut":30,"alat":10,"nb":8,"ranks":2,"ntg":2,"engine":"auto","seed":3}}`,
		`{"pipeline":{"ecut":30,"alat":10,"nb":8,"ranks":2,"ntg":2},"data":[1,2,3]}`,
		`{"op":"pipeline","pipeline":{"ecut":30,"alat":10,"nb":8,"ranks":2,"ntg":2,"data":[1]}}`,
		`{"dims":[1],"data":[1,2],"unknown":{"data":[1]}}`,
		`{}`, `null`, `[]`, `{"data"`, `{"data":[`, `{"data":[1`, ``,
	} {
		f.Add([]byte(seed))
	}
	// The float codec's boundary tokens, each beside a zero.
	for _, c := range floatBoundaries {
		f.Add([]byte(`{"dims":[1],"data":[` + c.tok + `,0]}`))
	}

	const maxElements = 1 << 10
	f.Fuzz(func(t *testing.T, body []byte) {
		got, data, err := decodeJSON(body, maxElements)
		want, refErr := referenceDecodeJSON(body, maxElements)
		if err != nil {
			if got != nil || data != nil {
				t.Fatalf("request or payload alongside error %v", err)
			}
			if refErr != nil {
				return
			}
			trailing, duplicate := narrowed(body)
			if !trailing && !duplicate {
				t.Fatalf("rejected (%v) what the reference accepts, and not by a documented narrowing", err)
			}
			return
		}
		defer complexPool.put(data)
		if refErr != nil {
			t.Fatalf("accepted what the reference rejects: %v", refErr)
		}
		// The payload lives beside the request, never in it; everything
		// else is equal field by field. A dims the body never mentioned is
		// empty either way.
		if got.Data != nil {
			t.Fatal("encoding/json saw the data array")
		}
		if len(got.Dims) == 0 {
			got.Dims = nil
		}
		wantData := want.Data
		want.Data = nil
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("decoded %+v, reference %+v", got, want)
		}
		sameFloats(t, data, wantData)
		// A buffer is a pool class: the next power of two over what was
		// asked for, and never more was asked for than this.
		limit := min(maxElements, len(body)/4)
		if bound := max(2*limit, poolMinBytes/16); cap(data) > bound {
			t.Fatalf("payload buffer of %d values for a %d-byte body, bound %d", cap(data), len(body), bound)
		}
	})
}

// TestJSONDecodeNarrowings pins the only inputs encoding/json accepted that
// the payload codec refuses, and that the router's peek refuses them too —
// before, a duplicated "data" let the two disagree about what was sent.
func TestJSONDecodeNarrowings(t *testing.T) {
	for _, body := range []string{
		`{"dims":[1],"data":[1,2]} x`,
		`{"dims":[1],"data":[1,2]}{}`,
		`{"dims":[1],"data":[1,2],"data":[3,4]}`,
		`{"dims":[1],"data":null,"DATA":[3,4]}`,
	} {
		if _, err := referenceDecodeJSON([]byte(body), 0); err != nil {
			t.Errorf("%s: the reference rejects it too (%v): not a narrowing", body, err)
		}
		if req, err := DecodeJSONRequest([]byte(body), 0); err == nil {
			t.Errorf("%s: accepted as %+v", body, req)
		}
		if key, _, err := PeekRoute([]byte(body), false); err == nil {
			t.Errorf("%s: the worker rejects it, the router peeked %q", body, key)
		}
	}
	// White space after the object is not "bytes after it".
	if _, err := DecodeJSONRequest([]byte("{\"dims\":[1],\"data\":[1,2]}\r\n\t "), 0); err != nil {
		t.Errorf("trailing white space rejected: %v", err)
	}
}

// TestJSONResponseBytesMatchEncodingJSON: the rendered transform reply is
// byte for byte what json.NewEncoder emits for the same Response.
func TestJSONResponseBytesMatchEncodingJSON(t *testing.T) {
	edge := []float64{
		0, math.Copysign(0, -1), 1, -1, 42, 1e6, 123456789, 1 << 53,
		1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, -2.5e-100,
		1e20, 1e21, 9.99999999999999e20, 1.23e25, -1e300,
		5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308,
		0.1, 1.0 / 3, -2.0 / 3, math.Pi, 123456.789e3, 100, 1e2, 1.25, -1e-7,
	}
	if len(edge)%2 != 0 {
		t.Fatal("the edge values must pair up into complex values")
	}
	rng := rand.New(rand.NewSource(17))
	random := make([]float64, 4096)
	for i := range random {
		switch i % 3 {
		case 0:
			random[i] = rng.NormFloat64()
		case 1:
			random[i] = math.Float64frombits(rng.Uint64())
			if !finite(random[i]) {
				random[i] = 0
			}
		default:
			random[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
	}
	for _, tc := range []struct {
		name      string
		data      []float64
		batchSize int
		traceID   string
	}{
		{"edge", edge, 1, ""},
		{"edge traced", edge, 32, "0123456789abcdef"},
		{"random", random, 7, ""},
		{"one value", []float64{1, 2}, 1, "ffffffffffffffff"},
	} {
		var want bytes.Buffer
		resp := &Response{Data: tc.data, BatchSize: tc.batchSize, TraceID: tc.traceID}
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		got, err := appendTransformJSON(nil, toComplex(tc.data), tc.batchSize, tc.traceID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: rendered reply differs from encoding/json's\n got %.200s\nwant %.200s", tc.name, got, want.Bytes())
		}
		if n := transformJSONSize(len(tc.data) / 2); len(got) > n {
			t.Errorf("%s: reply of %d bytes exceeds its size bound %d", tc.name, len(got), n)
		}
	}
	if _, err := appendTransformJSON(nil, []complex128{complex(1, math.Inf(1))}, 1, ""); err == nil {
		t.Error("a non-finite result was rendered as JSON")
	}
}

// poolKeeps reports whether sync.Pool hands back what was put into it. Under
// the race detector it drops a share at random, and no allocation pin over
// pooled buffers holds.
func poolKeeps() bool {
	var p sync.Pool
	for i := 0; i < 100; i++ {
		v := p.Get()
		if v == nil && i > 0 {
			return false
		}
		p.Put(new(int))
	}
	return true
}

// box16 is the benchmark's JSON shape: one 16×16×16 transform.
func box16(t testing.TB) (jsonBody, binaryBody []byte) {
	req := &Request{Op: OpTransform, Dims: []int{16, 16, 16}, Sign: -1, Batch: 1, Data: randomData(1, 4096)}
	jsonBody, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	binaryBody, err = EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return jsonBody, binaryBody
}

// TestPayloadCodecAllocs pins what the pools are for: on a warmed server,
// parsing a payload into a buffer and rendering a reply from one allocate
// nothing in the binary format and only the JSON envelope's few dozen bytes
// in JSON — the floats never cost an allocation.
func TestPayloadCodecAllocs(t *testing.T) {
	if !poolKeeps() {
		t.Skip("sync.Pool drops items under the race detector")
	}
	jsonBody, binaryBody := box16(t)
	payload := toComplex(randomData(2, 4096))

	// The array parser and both renderers, against a warmed pool.
	pin := func(name string, want float64, fn func()) {
		t.Helper()
		fn()
		if got := testing.AllocsPerRun(50, fn); got > want {
			t.Errorf("%s: %.1f allocations per run, want at most %.0f", name, got, want)
		}
	}
	arrayAt := bytes.Index(jsonBody, []byte(`"data":`)) + len(`"data":`)
	pin("parse JSON data array", 0, func() {
		dst := payloadBuf{limit: len(jsonBody) / 4}
		if _, err := parseNumberArray(jsonBody, arrayAt, &dst); err != nil || dst.floats != 8192 {
			t.Fatalf("parsed %d floats, error %v", dst.floats, err)
		}
		complexPool.put(dst.data)
	})
	pin("render JSON reply", 0, func() {
		out, err := appendTransformJSON(bytePool.get(transformJSONSize(len(payload)))[:0], payload, 1, "")
		if err != nil {
			t.Fatal(err)
		}
		bytePool.put(out)
	})
	pin("render binary reply", 0, func() {
		bytePool.put(appendTransformFrame(bytePool.get(transformFrameSize(len(payload)))[:0], payload, 1, ""))
	})
	// Whole decodes: the binary one allocates the Request and its dims, the
	// JSON one its envelope state and what encoding/json needs for a few
	// dozen bytes. Neither grows with the payload.
	pin("decode binary request", 2, func() {
		_, data, err := decodeBinary(binaryBody, 0)
		if err != nil {
			t.Fatal(err)
		}
		complexPool.put(data)
	})
	pin("decode JSON request", 12, func() {
		_, data, err := decodeJSON(jsonBody, 0)
		if err != nil {
			t.Fatal(err)
		}
		complexPool.put(data)
	})
}

// discardResponse is the least ResponseWriter: headers kept, body dropped.
type discardResponse struct {
	header http.Header
	status int
}

func (d *discardResponse) Header() http.Header         { return d.header }
func (d *discardResponse) Write(b []byte) (int, error) { return len(b), nil }
func (d *discardResponse) WriteHeader(code int)        { d.status = code }

// handleFFTCase is one row of the handler pins: a request body in one format
// and the most objects one round trip of it may allocate.
type handleFFTCase struct {
	name, contentType string
	body              []byte
	want              float64
}

// pinHandleFFT serves each case through s.handleFFT, pins its allocations per
// round trip and checks that fftxd_traced_requests_total rose by exactly one
// per round trip when traced, and not at all otherwise. Under the race
// detector sync.Pool drops items and no allocation pin holds; the counts
// still do. It returns the number of round trips served.
func pinHandleFFT(t *testing.T, s *Server, traced bool, cases []handleFFTCase) int {
	t.Helper()
	pinAllocs := poolKeeps()
	sampled := mTraced.With("sampled")
	total := 0
	for _, tc := range cases {
		body := bytes.NewReader(tc.body)
		r := httptest.NewRequest(http.MethodPost, "/fft", body)
		r.Header.Set("Content-Type", tc.contentType)
		w := &discardResponse{header: http.Header{}}
		trips := 0
		roundTrip := func() {
			body.Reset(tc.body)
			clear(w.header)
			w.status = 0
			s.handleFFT(w, r)
			trips++
			if w.status != 0 || w.header.Get("Content-Length") == "" {
				t.Fatalf("%s: status %d, headers %v", tc.name, w.status, w.header)
			}
		}
		before := sampled.Value()
		for i := 0; i < 5; i++ {
			roundTrip()
		}
		if pinAllocs {
			if got := testing.AllocsPerRun(50, roundTrip); got > tc.want {
				t.Errorf("%s: %.1f allocations per request, want at most %.0f", tc.name, got, tc.want)
			} else {
				t.Logf("%s: %.1f allocations per request", tc.name, got)
			}
		}
		wantTraced := 0
		if traced {
			wantTraced = trips
		}
		if got := sampled.Value() - before; got != float64(wantTraced) {
			t.Errorf("%s: fftxd_traced_requests_total += %v over %d round trips, want %d", tc.name, got, trips, wantTraced)
		}
		total += trips
	}
	return total
}

// TestHandleFFTAllocs pins the object count of one whole untraced transform
// request inside the server — handler, dispatcher and worker, everything but
// net/http's own connection handling — in both formats. The parent of the
// payload codec spent 159 objects and 1.9 MiB on the JSON one. The traced
// rows are TestTracingOverheadSmoke's.
func TestHandleFFTAllocs(t *testing.T) {
	s := startServer(t, Config{})
	jsonBody, binaryBody := box16(t)
	pinHandleFFT(t, s, false, []handleFFTCase{
		{"JSON", "application/json", jsonBody, 15},
		{"binary", "application/octet-stream", binaryBody, 7},
	})
}
