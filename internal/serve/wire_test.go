package serve

import (
	"bytes"
	"encoding/binary"
	"math"
	"strings"
	"testing"
)

// validWireRequest renders a well-formed binary request for tests to mutate.
func validWireRequest(t *testing.T) []byte {
	t.Helper()
	req := &Request{
		Dims:  []int{4, 3, 2},
		Batch: 2,
		Scale: true,
		Data:  make([]float64, 2*2*24),
	}
	for i := range req.Data {
		req.Data[i] = float64(i%7) - 3
	}
	b, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// pipelineFrame renders an "FXP1" frame: the binary pipeline-simulation
// request fftxd once served (magic, engine-name length, flags, two reserved
// bytes, ecut and alat as f64, nb, ranks, ntg, seed and deadline as u32, the
// engine name, then the trace ID when one is given). Decoders must reject it
// by its magic.
func pipelineFrame(traceID string) []byte {
	b := append([]byte("FXP1"), 4, 0, 0, 0)
	if traceID != "" {
		b[5] = 1
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(20))
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(10))
	for _, v := range []uint32{8, 2, 2, 0, 0} {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = append(b, "auto"...)
	return append(b, traceID...)
}

func TestWireRoundTrip(t *testing.T) {
	orig := &Request{
		Dims:           []int{5, 4},
		Sign:           1,
		Batch:          3,
		DeadlineMillis: 250,
		Data:           make([]float64, 2*3*20),
	}
	for i := range orig.Data {
		orig.Data[i] = 0.25 * float64(i)
	}
	b, err := EncodeRequest(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.Sign != 1 || got.Batch != 3 || got.DeadlineMillis != 250 || got.Scale {
		t.Errorf("header fields lost: %+v", got)
	}
	if len(got.Dims) != 2 || got.Dims[0] != 5 || got.Dims[1] != 4 {
		t.Errorf("dims lost: %v", got.Dims)
	}
	for i := range orig.Data {
		if got.Data[i] != orig.Data[i] {
			t.Fatalf("data[%d] = %g, want %g", i, got.Data[i], orig.Data[i])
		}
	}

	resp := &Response{Data: orig.Data, BatchSize: 7}
	rt, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if rt.BatchSize != 7 || len(rt.Data) != len(resp.Data) {
		t.Errorf("response round trip lost fields: batch %d len %d", rt.BatchSize, len(rt.Data))
	}
}

// TestWireTraceIDRoundTrip drives the trace-ID extension through both
// frame types: FXD1 (flags bit1 + ID between dims and payload) and FXR1
// (bit31 of the batch field + trailing ID).
func TestWireTraceIDRoundTrip(t *testing.T) {
	const id = "00deadbeef15dead"

	req := &Request{Dims: []int{4, 2}, Batch: 1, TraceID: id, Data: make([]float64, 2*8)}
	b, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeRequest(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got.TraceID != id {
		t.Errorf("FXD1 trace ID %q, want %q", got.TraceID, id)
	}
	if len(got.Data) != len(req.Data) {
		t.Errorf("FXD1 payload lost %d floats around the trace ID", len(req.Data)-len(got.Data))
	}

	resp := &Response{Data: []float64{1, 2}, BatchSize: 5, TraceID: id}
	rt, err := DecodeResponse(EncodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if rt.TraceID != id || rt.BatchSize != 5 || len(rt.Data) != 2 {
		t.Errorf("FXR1 round trip lost fields: %+v", rt)
	}

	// Malformed IDs are rejected at encode time, not silently truncated.
	if _, err := EncodeRequest(&Request{Dims: []int{2}, Batch: 1, TraceID: "nope", Data: make([]float64, 4)}); err == nil {
		t.Error("EncodeRequest accepted a malformed trace ID")
	}
	// A malformed trailing ID in a response frame is an error, not data.
	bad := EncodeResponse(resp)
	copy(bad[len(bad)-16:], "ZZZZZZZZZZZZZZZZ")
	if _, err := DecodeResponse(bad); err == nil {
		t.Error("DecodeResponse accepted a malformed trace ID")
	}
}

// TestDecodeRequestErrors pins the deterministic rejection cases the fuzzer
// explores at random: every mutation must produce an error, never a panic
// and never a silently-accepted request.
func TestDecodeRequestErrors(t *testing.T) {
	base := validWireRequest(t)
	mutate := func(f func(b []byte) []byte) []byte {
		b := append([]byte(nil), base...)
		return f(b)
	}
	nan := math.Float64bits(math.NaN())
	inf := math.Float64bits(math.Inf(1))
	cases := []struct {
		name string
		data []byte
		want string // error substring
	}{
		{"empty", nil, "truncated"},
		{"short header", base[:wireReqHeader-1], "truncated"},
		{"bad magic", mutate(func(b []byte) []byte { b[0] = 'X'; return b }), "bad magic"},
		{"response magic", mutate(func(b []byte) []byte { copy(b, magicResponse[:]); return b }), "bad magic"},
		{"pipeline frame", pipelineFrame("0123456789abcdef"), "bad magic"},
		{"bad sign", mutate(func(b []byte) []byte { b[4] = 2; return b }), "bad sign"},
		{"rank 0", mutate(func(b []byte) []byte { b[5] = 0; return b }), "bad rank"},
		{"rank 4", mutate(func(b []byte) []byte { b[5] = 4; return b }), "bad rank"},
		{"unknown flags", mutate(func(b []byte) []byte { b[6] = 0x80; return b }), "unknown flags"},
		{"reserved set", mutate(func(b []byte) []byte { b[7] = 1; return b }), "reserved"},
		{"trace flag without trace", mutate(func(b []byte) []byte { b[6] |= flagTraceID; return b }), "trace ID"},
		{"trace flag truncated trace", mutate(func(b []byte) []byte {
			b[6] |= flagTraceID
			return b[:wireReqHeader+4*3+8] // flag set, only half a trace ID present
		}), "truncated inside trace ID"},
		{"zero batch", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 0)
			return b
		}), "zero batch"},
		{"huge batch", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], math.MaxUint32)
			return b
		}), "exceeds"},
		{"zero dim", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[wireReqHeader:], 0)
			return b
		}), "out of range"},
		{"huge dims", mutate(func(b []byte) []byte {
			for i := 0; i < 3; i++ {
				binary.LittleEndian.PutUint32(b[wireReqHeader+4*i:], 1<<20)
			}
			return b
		}), "exceed"},
		{"truncated dims", base[:wireReqHeader+4], "truncated inside dims"},
		{"truncated payload", base[:len(base)-8], "payload carries"},
		{"oversized payload", append(append([]byte(nil), base...), 0, 0, 0, 0, 0, 0, 0, 0), "payload carries"},
		{"NaN component", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[wireReqHeader+12:], nan)
			return b
		}), "not finite"},
		{"Inf component", mutate(func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[len(b)-8:], inf)
			return b
		}), "not finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := DecodeRequest(tc.data, 0)
			if err == nil {
				t.Fatalf("accepted malformed input: %+v", req)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	// The happy path must survive unmutated.
	if _, err := DecodeRequest(base, 0); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
}

// TestElementBudget pins the element budget to the server's limit, not the
// default one: a budget above DefaultMaxElements admits what fits inside it,
// and a shape over the budget is reported as over it. Only headers are
// built, so no payload of that size is allocated.
func TestElementBudget(t *testing.T) {
	const big = 1 << 24
	cases := []struct {
		dims []int
		max  int
		want string // error substring; "" = admitted
	}{
		{[]int{1 << 23}, big, ""},
		{[]int{4096, 2048}, big, ""},
		{[]int{1 << 23}, 0, "exceeds the 4194304-element limit"},
		{[]int{4096, 2048}, 0, "exceeds the 4194304-element limit"},
		{[]int{1 << 40, 1 << 40}, big, "invalid dims"}, // the product overflows
	}
	for _, tc := range cases {
		r := &Request{Dims: tc.dims}
		_, err := r.validateHeader(tc.max)
		if tc.want == "" && err != nil {
			t.Errorf("dims %v under budget %d: %v", tc.dims, tc.max, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("dims %v under budget %d: error %v, want one mentioning %q", tc.dims, tc.max, err, tc.want)
		}
	}

	// An FXD1 header of dims [2^23] with no payload behind it: admitted by
	// a 2^24 budget, so the frame fails on its length.
	header := []byte{'F', 'X', 'D', '1', 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x80, 0}
	if _, err := DecodeRequest(header, big); err == nil || !strings.Contains(err.Error(), "payload carries") {
		t.Errorf("truncated FXD1 under budget %d: error %v, want a payload-length error", big, err)
	}
}

// FuzzRequestDecode holds the binary decoder to its contract: arbitrary
// input either decodes into a request that re-validates cleanly or returns
// an error — it never panics and never over-allocates past the element
// budget.
func FuzzRequestDecode(f *testing.F) {
	valid := &Request{Dims: []int{4, 3, 2}, Batch: 2, Scale: true, Data: make([]float64, 2*2*24)}
	if seed, err := EncodeRequest(valid); err == nil {
		f.Add(seed)
		f.Add(seed[:wireReqHeader+4])
		f.Add(append(append([]byte(nil), seed...), 1, 2, 3))
	}
	// Pipeline frames, which no longer decode.
	pipe := pipelineFrame("")
	f.Add(pipe)
	f.Add(pipe[:len(pipe)-4])
	// Traced frames: whole, truncated mid-trace-ID, and with a duplicated
	// trace-ID field appended (the decoder must reject the length surplus).
	valid.TraceID = "0123456789abcdef"
	if seed, err := EncodeRequest(valid); err == nil {
		f.Add(seed)
		f.Add(seed[:wireReqHeader+4*3+8])
		f.Add(append(append([]byte(nil), seed...), "0123456789abcdef"...))
	}
	pipe = pipelineFrame("fedcba9876543210")
	f.Add(pipe)
	f.Add(pipe[:len(pipe)-8])
	f.Add(append(append([]byte(nil), pipe...), "fedcba9876543210"...))
	f.Add([]byte{})
	f.Add([]byte("FXD1"))
	f.Add([]byte("FXP1"))
	f.Add([]byte("FXR1aaaaaaaaaaaaaaaa"))
	short := []byte{'F', 'X', 'D', '1', 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0}
	f.Add(append(append([]byte(nil), short...), make([]byte, 32)...))

	const fuzzMaxElements = 1 << 12
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeRequest(data, fuzzMaxElements)
		if err != nil {
			if req != nil {
				t.Fatalf("non-nil request alongside error %v", err)
			}
			return
		}
		// Whatever decoded must satisfy the same contract Validate enforces.
		if err := req.Validate(fuzzMaxElements); err != nil {
			t.Fatalf("decoded request fails validation: %v", err)
		}
		n := req.NumElements()
		if n == 0 || req.Batch*n > fuzzMaxElements {
			t.Fatalf("decoded request exceeds budget: batch %d × %d elements", req.Batch, n)
		}
		if len(req.Data) != 2*req.Batch*n {
			t.Fatalf("decoded data length %d, want %d", len(req.Data), 2*req.Batch*n)
		}
		for i, v := range req.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("non-finite component %d survived decoding", i)
			}
		}
		// Decoded requests re-encode to a decodable equivalent.
		b, err := EncodeRequest(req)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		again, err := DecodeRequest(b, fuzzMaxElements)
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !bytes.Equal(b, mustEncode(t, again)) {
			t.Fatal("encode/decode is not a fixed point")
		}
	})
}

func mustEncode(t *testing.T, r *Request) []byte {
	t.Helper()
	b, err := EncodeRequest(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
