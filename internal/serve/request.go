// Package serve is the network-facing FFT serving subsystem (the fftxd
// daemon): an HTTP service that accepts 1-D/2-D/3-D transform requests,
// executes them on a bounded worker pool, shares one fft.Cache of plans
// across all requests and coalesces same-shape requests into batches — the
// paper's per-iteration task grouping applied to serving: grouping
// transforms of one shape amortizes plan lookup and twiddle-table reuse and
// turns many small independent kernels into one host-parallel fan-out.
//
// The subsystem has four layers:
//
//   - request.go / wire.go / json.go — the JSON and length-prefixed binary
//     codecs and request validation (shape limits, finiteness; decoders never
//     panic). A transform's payload is parsed once, straight into a pooled
//     []complex128 (pool.go), and its reply printed once from that buffer.
//   - batch.go — admission control (bounded queue, deadline- and
//     drain-aware rejection with Retry-After) and the batching dispatcher
//     that hands the oldest group to the first free worker, so same-shape
//     requests coalesce while every worker is busy.
//   - exec.go — batch execution on the plan cache via the host-parallel
//     fft batch drivers.
//   - serve.go — the HTTP server: /fft, /healthz, plus the standard
//     telemetry mux (/metrics, /debug/vars, /debug/pprof) and graceful
//     drain on shutdown.
//
// Handlers here run on wall-clock host time and link nothing of the
// simulator: internal/analysis's TestServingLinksNoSimulator keeps every
// simulator package out of the serving packages' import closure.
package serve

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/fft"
	"repro/internal/trace"
)

// OpTransform is the one request kind: an in-place complex FFT of one or
// more equally-shaped arrays.
const OpTransform = "transform"

// DefaultMaxElements bounds the total complex elements of one transform
// request (dims product × batch): 2^22 elements = 64 MiB of complex128.
const DefaultMaxElements = 1 << 22

// Request is one FFT service request. The JSON form posts to /fft with
// Content-Type application/json; the equivalent binary form uses the
// length-prefixed wire format of wire.go with Content-Type
// application/octet-stream.
type Request struct {
	// Op is OpTransform or empty, which means the same.
	Op string `json:"op,omitempty"`

	// Dims are the transform dimensions, outermost first: [n] for 1-D,
	// [nx, ny] for row-major planes, [nx, ny, nz] for z-fastest boxes.
	Dims []int `json:"dims,omitempty"`
	// Sign is the transform direction: -1 forward, +1 backward (default
	// forward).
	Sign int `json:"sign,omitempty"`
	// Scale applies the 1/N normalization after the transform.
	Scale bool `json:"scale,omitempty"`
	// Batch is the number of equally-shaped transforms carried in Data
	// (default 1). All of them share one plan and one host-parallel
	// fan-out.
	Batch int `json:"batch,omitempty"`
	// Data holds batch × product(Dims) complex values as interleaved
	// re,im float64 pairs.
	Data []float64 `json:"data,omitempty"`

	// DeadlineMillis is the client's tolerance for queueing: if the request
	// cannot start executing within this many milliseconds of arrival, the
	// server rejects it with 503 + Retry-After instead of holding it (0 =
	// no deadline).
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`

	// TraceID, when set, must be a 16-hex-character request trace ID. A
	// request carrying one is always traced (client-requested tracing); the
	// server echoes it in the response and keys the span tree under it at
	// /debug/fftx/requests. Requests without one may still be sampled, in
	// which case the response reports the server-assigned ID.
	TraceID string `json:"trace_id,omitempty"`
}

// Response is the JSON reply of /fft.
type Response struct {
	// Data echoes the transformed payload (interleaved re,im).
	Data []float64 `json:"data,omitempty"`
	// BatchSize is the number of transforms the server coalesced into the
	// batch this request rode in (≥ its own Batch; the batching tests read
	// it).
	BatchSize int `json:"batch_size,omitempty"`
	// TraceID echoes the request's trace ID when the request was traced
	// (client-supplied or server-sampled); a client joins the latency it
	// observed to the server-side span tree through it. Traced replies also
	// carry it in the Fftx-Trace-Id response header, which is how
	// binary-transform clients read it.
	TraceID string `json:"trace_id,omitempty"`
}

// errorBody is the JSON error payload of non-2xx replies.
type errorBody struct {
	Error string `json:"error"`
}

// NumElements returns product(Dims), or 0 for invalid dims: a
// non-positive dim, or a product that overflows an int. The element budget
// is Validate's to enforce.
func (r *Request) NumElements() int {
	if len(r.Dims) == 0 {
		return 0
	}
	n := 1
	for _, d := range r.Dims {
		if d <= 0 || n > math.MaxInt/d {
			return 0
		}
		n *= d
	}
	return n
}

// ShapeKey is the batching key: requests with equal keys can execute as one
// batch (same dims, direction and scaling). The key doubles as the "shape"
// metric label, e.g. "f3d:20x20x20" for a forward 3-D transform.
func (r *Request) ShapeKey() string {
	var buf [48]byte
	return string(r.appendShapeKey(buf[:0]))
}

func (r *Request) appendShapeKey(b []byte) []byte {
	// Sign is normalized to ±1 by Validate; backward is +1.
	if r.Sign > 0 {
		b = append(b, 'b')
	} else {
		b = append(b, 'f')
	}
	b = strconv.AppendInt(b, int64(len(r.Dims)), 10)
	b = append(b, 'd', ':')
	for i, d := range r.Dims {
		if i > 0 {
			b = append(b, 'x')
		}
		b = strconv.AppendInt(b, int64(d), 10)
	}
	if r.Scale {
		b = append(b, ':', 's')
	}
	return b
}

// Validate normalizes and checks a decoded request against the server's
// element budget. It returns a client-error description (HTTP 400) on
// violation.
func (r *Request) Validate(maxElements int) error {
	floats, err := r.validateHeader(maxElements)
	if err != nil {
		return err
	}
	if len(r.Data) != floats {
		return dataLengthError(len(r.Data), floats, r.Batch)
	}
	for i, v := range r.Data {
		if !finite(v) {
			return fmt.Errorf("data[%d] is not finite", i)
		}
	}
	return nil
}

func dataLengthError(got, want, batch int) error {
	return fmt.Errorf("data carries %d floats, want %d (batch %d × %d elements × re,im)",
		got, want, batch, want/(2*batch))
}

// validateHeader is Validate without the payload: it normalizes and checks
// every other field and returns the number of floats the payload must carry.
// The decoders, whose payload is not in Data, finish the job themselves.
func (r *Request) validateHeader(maxElements int) (floats int, err error) {
	if maxElements <= 0 {
		maxElements = DefaultMaxElements
	}
	if r.TraceID != "" && !trace.ValidTraceID(r.TraceID) {
		return 0, fmt.Errorf("malformed trace_id %q (want %d lowercase hex characters)", r.TraceID, trace.TraceIDLen)
	}
	if r.Op != "" && r.Op != OpTransform {
		return 0, fmt.Errorf("unknown op %q", r.Op)
	}
	r.Op = OpTransform
	if len(r.Dims) < 1 || len(r.Dims) > 3 {
		return 0, fmt.Errorf("dims must have 1 to 3 entries, got %d", len(r.Dims))
	}
	n := r.NumElements()
	if n == 0 {
		return 0, fmt.Errorf("invalid dims %v", r.Dims)
	}
	if r.Batch == 0 {
		r.Batch = 1
	}
	if r.Batch < 0 {
		return 0, fmt.Errorf("invalid batch %d", r.Batch)
	}
	if r.Batch > maxElements/n {
		return 0, fmt.Errorf("request of %d×%d elements exceeds the %d-element limit", r.Batch, n, maxElements)
	}
	switch r.Sign {
	case 0, -1:
		r.Sign = -1
	case 1:
	default:
		return 0, fmt.Errorf("sign must be -1 (forward) or +1 (backward), got %d", r.Sign)
	}
	return 2 * r.Batch * n, nil
}

// signOf converts the wire sign to the fft package direction.
func signOf(sign int) fft.Sign {
	if sign > 0 {
		return fft.Backward
	}
	return fft.Forward
}

// DecodeJSONRequest parses and validates a JSON request body.
func DecodeJSONRequest(body []byte, maxElements int) (*Request, error) {
	req, payload, err := decodeJSON(body, maxElements)
	return exportPayload(req, payload), err
}

// exportPayload moves a decoded transform's payload into Request.Data, the
// interleaved []float64 of the exported API, and recycles the decoder's
// buffer. The server itself never does this: its payload stays complex.
func exportPayload(req *Request, payload []complex128) *Request {
	if payload == nil {
		return req
	}
	req.Data = make([]float64, 2*len(payload))
	for i, v := range payload {
		req.Data[2*i], req.Data[2*i+1] = real(v), imag(v)
	}
	complexPool.put(payload)
	return req
}
