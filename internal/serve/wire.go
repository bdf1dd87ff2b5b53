package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/trace"
)

// Length-prefixed binary wire format — the low-overhead alternative to
// JSON for bulk payloads and tight request loops. All integers are
// little-endian; complex values are float64 re,im pairs.
//
// Transform request layout:
//
//	offset  size  field
//	0       4     magic "FXD1"
//	4       1     sign: 0 forward, 1 backward
//	5       1     rank: 1, 2 or 3
//	6       1     flags: bit0 = scale by 1/N, bit1 = trace ID present
//	7       1     reserved, must be 0
//	8       4     u32 batch count (≥ 1)
//	12      4     u32 deadline in milliseconds (0 = none)
//	16      4·r   u32 dims, outermost first
//	…       16    ASCII trace ID (lowercase hex), only when flags bit1 set
//	…             batch × product(dims) × 16 bytes payload
//
// Transform response layout:
//
//	0       4     magic "FXR1"
//	4       4     u32 batch size the request was coalesced into; bit31 is
//	              the trace-echo flag (masked off the size)
//	8       …     payload, same shape as the request
//	…       16    ASCII trace ID, only when bit31 of the size field is set
//
// Decoders validate every length before allocating and return errors —
// never panic — on malformed input (FuzzRequestDecode holds them to that).

// Wire format constants.
var (
	magicRequest  = [4]byte{'F', 'X', 'D', '1'}
	magicResponse = [4]byte{'F', 'X', 'R', '1'}
)

const (
	wireReqHeader  = 16 // fixed request header bytes before dims
	wireRespHeader = 8
	flagScale      = 1 << 0
	flagTraceID    = 1 << 1 // a 16-byte trace ID follows the dims
	// flagRespTrace marks bit31 of the FXR1 batch-size field: a 16-byte
	// trace ID trails the payload. Batch sizes are bounded far below 2^31
	// (DefaultMaxElements), so the bit is never a real size.
	flagRespTrace = uint32(1) << 31
)

// PeekRoute extracts the routing key and trace ID of an encoded request
// without decoding (or validating) its payload — the router's half of the
// codec. A request peeks as its batching ShapeKey ("f3d:16x16x16"), so a
// shape lands on the worker whose plan cache is already hot for it.
// Malformed bodies return an error: the router forwards those to an
// arbitrary worker, whose full decoder owns the canonical rejection.
func PeekRoute(body []byte, binary bool) (key, traceID string, err error) {
	if binary {
		return peekBinaryRoute(body)
	}
	var peek struct {
		Dims    []int  `json:"dims"`
		Sign    int    `json:"sign"`
		Scale   bool   `json:"scale"`
		TraceID string `json:"trace_id"`
	}
	// Only the envelope is parsed: the scanner steps over the data array
	// without converting it, and rejects what the worker's decoder rejects
	// in the envelope's structure (a second "data" member, trailing bytes).
	envelope, err := splitJSONRequest(body, nil, nil)
	if err == nil {
		err = json.Unmarshal(envelope, &peek)
	}
	if err != nil {
		return "", "", fmt.Errorf("unroutable JSON request: %w", err)
	}
	if len(peek.Dims) < 1 || len(peek.Dims) > 3 {
		return "", "", fmt.Errorf("unroutable request: dims %v", peek.Dims)
	}
	r := Request{Sign: peek.Sign, Scale: peek.Scale, Dims: peek.Dims}
	if r.Sign <= 0 {
		r.Sign = -1
	}
	return r.ShapeKey(), peek.TraceID, nil
}

// peekBinaryRoute reads just the FXD1 header fields that determine routing,
// leaving the payload untouched and unvalidated.
func peekBinaryRoute(body []byte) (key, traceID string, err error) {
	if len(body) < wireReqHeader || [4]byte(body[:4]) != magicRequest {
		return "", "", fmt.Errorf("unroutable binary request")
	}
	sign, rank, flags := body[4], body[5], body[6]
	if rank < 1 || rank > 3 || len(body) < wireReqHeader+4*int(rank) {
		return "", "", fmt.Errorf("unroutable binary request: bad rank %d", rank)
	}
	r := Request{Sign: -1, Scale: flags&flagScale != 0, Dims: make([]int, rank)}
	if sign == 1 {
		r.Sign = 1
	}
	for i := range r.Dims {
		d := binary.LittleEndian.Uint32(body[wireReqHeader+4*i:])
		if d == 0 {
			return "", "", fmt.Errorf("unroutable binary request: zero dim")
		}
		r.Dims[i] = int(d)
	}
	if flags&flagTraceID != 0 {
		rest := body[wireReqHeader+4*int(rank):]
		if len(rest) < trace.TraceIDLen {
			return "", "", fmt.Errorf("unroutable binary request: truncated trace ID")
		}
		traceID = string(rest[:trace.TraceIDLen])
	}
	return r.ShapeKey(), traceID, nil
}

// EncodeRequest renders a validated request as an "FXD1" frame.
func EncodeRequest(r *Request) ([]byte, error) {
	if r.Op != "" && r.Op != OpTransform {
		return nil, fmt.Errorf("binary wire format carries transform requests only, not %q", r.Op)
	}
	if len(r.Dims) < 1 || len(r.Dims) > 3 {
		return nil, fmt.Errorf("invalid rank %d", len(r.Dims))
	}
	batch := r.Batch
	if batch == 0 {
		batch = 1
	}
	out := make([]byte, 0, wireReqHeader+4*len(r.Dims)+8*len(r.Data))
	out = append(out, magicRequest[:]...)
	sign := byte(0)
	if r.Sign > 0 {
		sign = 1
	}
	flags := byte(0)
	if r.Scale {
		flags |= flagScale
	}
	if r.TraceID != "" {
		if !trace.ValidTraceID(r.TraceID) {
			return nil, fmt.Errorf("malformed trace_id %q", r.TraceID)
		}
		flags |= flagTraceID
	}
	out = append(out, sign, byte(len(r.Dims)), flags, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(batch))
	out = binary.LittleEndian.AppendUint32(out, uint32(r.DeadlineMillis))
	for _, d := range r.Dims {
		if d <= 0 || d > math.MaxUint32 {
			return nil, fmt.Errorf("invalid dim %d", d)
		}
		out = binary.LittleEndian.AppendUint32(out, uint32(d))
	}
	if flags&flagTraceID != 0 {
		out = append(out, r.TraceID...)
	}
	for _, v := range r.Data {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out, nil
}

// DecodeRequest parses and validates an "FXD1" frame. It never panics: malformed lengths, truncated payloads and non-finite components
// all return errors.
func DecodeRequest(data []byte, maxElements int) (*Request, error) {
	req, payload, err := decodeBinary(data, maxElements)
	return exportPayload(req, payload), err
}

// float64ExpMask selects the exponent bits; all ones means NaN or ±Inf.
const float64ExpMask = 0x7FF << 52

// decodeBinary is DecodeRequest with a transform's payload returned as
// complex values in a complexPool buffer the caller owns — the form the
// server transforms in place. The buffer is sized only after the header, the
// element budget and the frame length have been checked against each other.
func decodeBinary(data []byte, maxElements int) (*Request, []complex128, error) {
	if maxElements <= 0 {
		maxElements = DefaultMaxElements
	}
	if len(data) < wireReqHeader {
		return nil, nil, fmt.Errorf("request truncated: %d bytes, header is %d", len(data), wireReqHeader)
	}
	if [4]byte(data[:4]) != magicRequest {
		return nil, nil, fmt.Errorf("bad magic %q", data[:4])
	}
	sign, rank, flags, reserved := data[4], data[5], data[6], data[7]
	if sign > 1 {
		return nil, nil, fmt.Errorf("bad sign byte %d", sign)
	}
	if rank < 1 || rank > 3 {
		return nil, nil, fmt.Errorf("bad rank %d", rank)
	}
	if flags&^byte(flagScale|flagTraceID) != 0 || reserved != 0 {
		return nil, nil, fmt.Errorf("unknown flags %#x / reserved %#x", flags, reserved)
	}
	batch := binary.LittleEndian.Uint32(data[8:12])
	deadline := binary.LittleEndian.Uint32(data[12:16])
	if batch == 0 {
		return nil, nil, fmt.Errorf("zero batch count")
	}
	if len(data) < wireReqHeader+4*int(rank) {
		return nil, nil, fmt.Errorf("request truncated inside dims")
	}
	req := &Request{
		Op:             OpTransform,
		Sign:           -1,
		Scale:          flags&flagScale != 0,
		Batch:          int(batch),
		DeadlineMillis: int64(deadline),
		Dims:           make([]int, rank),
	}
	if sign == 1 {
		req.Sign = 1
	}
	n := 1
	for i := 0; i < int(rank); i++ {
		d := binary.LittleEndian.Uint32(data[wireReqHeader+4*i:])
		if d == 0 || int(d) > maxElements {
			return nil, nil, fmt.Errorf("dim %d out of range", d)
		}
		if n > maxElements/int(d) {
			return nil, nil, fmt.Errorf("dims %v exceed the %d-element limit", data[wireReqHeader:wireReqHeader+4*int(rank)], maxElements)
		}
		n *= int(d)
		req.Dims[i] = int(d)
	}
	if int(batch) > maxElements/n {
		return nil, nil, fmt.Errorf("batch of %d×%d elements exceeds the %d-element limit", batch, n, maxElements)
	}
	rest := data[wireReqHeader+4*int(rank):]
	if flags&flagTraceID != 0 {
		if len(rest) < trace.TraceIDLen {
			return nil, nil, fmt.Errorf("request truncated inside trace ID")
		}
		id := string(rest[:trace.TraceIDLen])
		if !trace.ValidTraceID(id) {
			return nil, nil, fmt.Errorf("malformed trace ID %q", id)
		}
		req.TraceID = id
		rest = rest[trace.TraceIDLen:]
	}
	if _, err := req.validateHeader(maxElements); err != nil {
		return nil, nil, err
	}
	if want := int(batch) * n * 16; len(rest) != want {
		return nil, nil, fmt.Errorf("payload carries %d bytes, want %d", len(rest), want)
	}
	payload := complexPool.get(int(batch) * n)
	for i := range payload {
		re := binary.LittleEndian.Uint64(rest[16*i:])
		im := binary.LittleEndian.Uint64(rest[16*i+8:])
		if re&float64ExpMask == float64ExpMask || im&float64ExpMask == float64ExpMask {
			complexPool.put(payload)
			return nil, nil, fmt.Errorf("payload element %d is not finite", i)
		}
		payload[i] = complex(math.Float64frombits(re), math.Float64frombits(im))
	}
	return req, payload, nil
}

// EncodeResponse renders a response as an "FXR1" frame.
func EncodeResponse(resp *Response) []byte {
	traceID := resp.TraceID
	if !trace.ValidTraceID(traceID) {
		traceID = ""
	}
	// The exported API carries interleaved floats where the server has
	// complex values; header and trailer are appendTransformFrame's.
	out := make([]byte, 0, wireRespHeader+8*len(resp.Data)+trace.TraceIDLen)
	out = appendFrameHeader(out, resp.BatchSize, traceID != "")
	for _, v := range resp.Data {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return append(out, traceID...)
}

// transformFrameSize is the length of an FXR1 frame of the given number of
// complex values, trace echo included.
func transformFrameSize(values int) int {
	return wireRespHeader + 16*values + trace.TraceIDLen
}

func appendFrameHeader(out []byte, batchSize int, traced bool) []byte {
	out = append(out, magicResponse[:]...)
	size := uint32(batchSize)
	if traced {
		size |= flagRespTrace
	}
	return binary.LittleEndian.AppendUint32(out, size)
}

// appendTransformFrame appends a transform's FXR1 reply frame, rendered
// straight from the transformed payload; traceID is empty or a valid trace
// ID.
func appendTransformFrame(out []byte, data []complex128, batchSize int, traceID string) []byte {
	out = appendFrameHeader(out, batchSize, traceID != "")
	for _, v := range data {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(real(v)))
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(imag(v)))
	}
	return append(out, traceID...)
}

// DecodeResponse parses an "FXR1" frame (a binary client's read path).
func DecodeResponse(data []byte) (*Response, error) {
	if len(data) < wireRespHeader {
		return nil, fmt.Errorf("response truncated: %d bytes", len(data))
	}
	if [4]byte(data[:4]) != magicResponse {
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	size := binary.LittleEndian.Uint32(data[4:8])
	body := data[wireRespHeader:]
	traceID := ""
	if size&flagRespTrace != 0 {
		if len(body) < trace.TraceIDLen {
			return nil, fmt.Errorf("response truncated inside trace ID")
		}
		traceID = string(body[len(body)-trace.TraceIDLen:])
		if !trace.ValidTraceID(traceID) {
			return nil, fmt.Errorf("malformed trace ID %q", traceID)
		}
		body = body[:len(body)-trace.TraceIDLen]
	}
	if len(body)%16 != 0 {
		return nil, fmt.Errorf("payload of %d bytes is not whole complex values", len(body))
	}
	resp := &Response{
		BatchSize: int(size &^ flagRespTrace),
		TraceID:   traceID,
		Data:      make([]float64, len(body)/8),
	}
	for i := range resp.Data {
		resp.Data[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return resp, nil
}
