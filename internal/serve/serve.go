package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fft"
	"repro/internal/trace"
)

// Config tunes one Server. The zero value serves on an ephemeral localhost
// port with GOMAXPROCS workers and batching enabled.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Workers is the number of batch-executing goroutines (default
	// GOMAXPROCS).
	Workers int
	// QueueDepth bounds the admission queue; a full queue rejects with 503
	// + Retry-After (default 256).
	QueueDepth int
	// MaxBatch is the most transform rows coalesced into one batch; 1
	// disables batching (default 32).
	MaxBatch int
	// BatchWindow is how long a partial batch waits for same-shape company
	// before flushing; 0 disables batching (default 500 µs).
	BatchWindow time.Duration
	// MaxElements bounds one request's total complex elements (default
	// DefaultMaxElements).
	MaxElements int
	// Cache is the shared plan cache (default: a private cache).
	Cache *fft.Cache
	// Mux, when non-nil, is the base mux the /fft and /healthz endpoints
	// mount onto — fftxd passes telemetry.Mux so one listener serves both
	// the FFT API and /metrics + /debug/pprof.
	Mux *http.ServeMux
	// DefaultEngine is the fftx engine pipeline requests run on when they
	// do not name one: original, task-steps, task-iter, task-combined, dataflow or
	// auto (the cost-model selector). Empty means task-iter, the paper's
	// best-performing version.
	DefaultEngine string
	// TraceSample is the fraction of requests the server traces on its own
	// initiative (0 = none, 1 = all; sampling is a deterministic 1-in-N
	// stride, not a coin flip). Requests that arrive carrying a trace_id are
	// always traced regardless of the rate. Traced requests build a span
	// tree visible at /debug/fftx/requests, link histogram exemplars and
	// emit a structured log line.
	TraceSample float64
	// Logger receives structured request logs keyed by trace ID (default:
	// discard). Traced requests log one line at Debug (Warn on errors);
	// server lifecycle logs at Info.
	Logger *slog.Logger
	// RequestLogSize bounds the recent-request ring of /debug/fftx/requests
	// (default 64).
	RequestLogSize int
	// execDelay stretches every batch execution by this duration (default
	// 0). Shutdown and overload tests set it to observe in-flight vs queued
	// states deterministically.
	execDelay time.Duration
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 32
	}
	if c.BatchWindow == 0 {
		c.BatchWindow = 500 * time.Microsecond
	}
	if c.MaxElements <= 0 {
		c.MaxElements = DefaultMaxElements
	}
	if c.Cache == nil {
		c.Cache = &fft.Cache{}
	}
	if c.Mux == nil {
		c.Mux = http.NewServeMux()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.RequestLogSize <= 0 {
		c.RequestLogSize = 64
	}
	return c
}

// Server is a running FFT service.
type Server struct {
	cfg   Config
	cache *fft.Cache

	queue   chan *task
	batches chan *group
	flushCh chan string

	admitMu  sync.RWMutex
	draining bool

	dispatcherDone chan struct{}
	workerWG       sync.WaitGroup

	ln    net.Listener
	httpS *http.Server
	start time.Time

	shutdownOnce sync.Once
	shutdownErr  error

	// Observability: the in-flight/recent request log behind
	// /debug/fftx/requests, the structured logger and the deterministic
	// sampling counter.
	reqLog   *requestLog
	logger   *slog.Logger
	traceSeq atomic.Uint64

	// shapeMu guards shapesServed, the bounded set of distinct transform
	// shape keys this server has seen — the "shapes" field of the /healthz
	// body, which tells the cluster router (and humans) what this worker's
	// plan cache is warm for. Each key maps to itself, so that a request of
	// a shape seen before shares the stored string (shapeKey).
	shapeMu      sync.Mutex
	shapesServed map[string]string
}

// New builds a Server from cfg. Call Start to bind and serve.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:            cfg,
		cache:          cfg.Cache,
		queue:          make(chan *task, cfg.QueueDepth),
		batches:        make(chan *group, cfg.Workers),
		flushCh:        make(chan string, 1),
		dispatcherDone: make(chan struct{}),
		reqLog:         newRequestLog(cfg.RequestLogSize),
		logger:         cfg.Logger,
		shapesServed:   map[string]string{},
	}
	cfg.Mux.HandleFunc("/fft", s.handleFFT)
	cfg.Mux.HandleFunc("/healthz", s.handleHealthz)
	cfg.Mux.HandleFunc("/debug/fftx/requests", s.handleDebugRequests)
	return s
}

// Start binds the listener and serves in the background until Shutdown.
func (s *Server) Start() error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", s.cfg.Addr, err)
	}
	s.ln = ln
	s.start = time.Now()
	s.httpS = &http.Server{Handler: s.cfg.Mux, ReadHeaderTimeout: 5 * time.Second}
	mDrainState.Set(0)
	go s.dispatch()
	s.workerWG.Add(s.cfg.Workers)
	for i := 0; i < s.cfg.Workers; i++ {
		go s.worker()
	}
	go func() { _ = s.httpS.Serve(ln) }()
	s.logger.Info("fftxd serving",
		"addr", s.Addr(), "workers", s.cfg.Workers, "queue_depth", s.cfg.QueueDepth,
		"trace_sample", s.cfg.TraceSample)
	return nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Workers returns the effective worker-pool size.
func (s *Server) Workers() int { return s.cfg.Workers }

// Shutdown drains gracefully: admission closes immediately (new requests
// get 503 + Retry-After), batches already handed to the worker pool
// complete, everything still queued is rejected with 503, then the
// listener closes once the in-flight HTTP exchanges finish. It is
// idempotent and bounded by ctx.
func (s *Server) Shutdown(ctx context.Context) error {
	s.shutdownOnce.Do(func() {
		s.admitMu.Lock()
		s.draining = true
		mDrainState.Set(1)
		close(s.queue)
		s.admitMu.Unlock()

		workDone := make(chan struct{})
		go func() {
			<-s.dispatcherDone
			s.workerWG.Wait()
			close(workDone)
		}()
		select {
		case <-workDone:
		case <-ctx.Done():
			s.shutdownErr = ctx.Err()
			_ = s.httpS.Close()
			return
		}
		s.shutdownErr = s.httpS.Shutdown(ctx)
		s.logger.Info("drain complete", "uptime_s", time.Since(s.start).Seconds())
	})
	return s.shutdownErr
}

// Draining reports whether the server has begun shutting down.
func (s *Server) Draining() bool {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	return s.draining
}

// maxBody bounds an /fft request body: the element budget in complex128
// bytes plus codec overhead.
func (s *Server) maxBody() int64 {
	return int64(s.cfg.MaxElements)*16 + 1<<16
}

// shouldTrace decides whether this request records a span tree: always when
// the client sent a trace ID, otherwise a deterministic 1-in-N stride of
// Config.TraceSample.
func (s *Server) shouldTrace(clientID string) bool {
	if clientID != "" {
		return true
	}
	rate := s.cfg.TraceSample
	if rate <= 0 {
		return false
	}
	if rate >= 1 {
		return true
	}
	stride := uint64(1/rate + 0.5)
	if stride < 1 {
		stride = 1
	}
	return (s.traceSeq.Add(1)-1)%stride == 0
}

// handleFFT is the transform/pipeline endpoint. The response format follows
// the request format: application/octet-stream for the binary wire format,
// JSON otherwise. Traced requests (client trace ID or server sampling) record
// a span tree covering decode → admit → queue → coalesce → exec → encode;
// the root span brackets the same work the fftxd_request_seconds observation
// measures, and its trace ID becomes that observation's exemplar.
//
// A transform's payload is read once, parsed once, transformed in place and
// printed once, through pooled buffers (pool.go): the body buffer is released
// as soon as it is parsed, the payload and the rendered reply after the
// write.
func (s *Server) handleFFT(w http.ResponseWriter, r *http.Request) {
	startAt := time.Now()
	code := 0
	var spans *trace.SpanSet
	defer func() {
		if code == http.StatusOK {
			mFFTOK.Inc()
		} else {
			mReqTotal.With("fft", strconv.Itoa(code)).Inc()
		}
		mReqSeconds.With("fft").ObserveExemplar(
			time.Since(startAt).Seconds(), spans.TraceID(), time.Now().UnixNano())
	}()
	if r.Method != http.MethodPost {
		code = http.StatusMethodNotAllowed
		writeError(w, false, code, 0, "POST only")
		return
	}
	binary := r.Header.Get("Content-Type") == "application/octet-stream"
	body, serr := s.readBody(w, r)
	if serr != nil {
		code = serr.code
		writeError(w, binary, code, 0, "request body rejected: %s", serr.msg)
		return
	}
	readAt := time.Now()
	var req *Request
	var data []complex128
	var err error
	if binary {
		req, data, err = decodeBinary(body, s.cfg.MaxElements)
	} else {
		req, data, err = decodeJSON(body, s.cfg.MaxElements)
	}
	bytePool.put(body) // nothing decoded refers to it
	parsedAt := time.Now()
	if err != nil {
		code = http.StatusBadRequest
		writeError(w, binary, code, 0, "%v", err)
		return
	}

	if s.shouldTrace(req.TraceID) {
		spans = trace.NewSpanSet(req.TraceID)
		// Every traced reply — success or error, JSON or binary — carries
		// the ID in this header; the JSON body and binary frames echo it
		// too on success.
		w.Header().Set("Fftx-Trace-Id", spans.TraceID())
		source := "sampled"
		if req.TraceID != "" {
			source = "client"
		}
		mTraced.With(source).Inc()
	}
	root := spans.BeginAt("request", startAt)
	root.SetAttr("op", req.Op)
	shape := ""
	if req.Op == OpTransform {
		shape = s.shapeKey(req)
		root.SetAttr("shape", shape)
	}
	// Sampling is decided by what was decoded, so the decode span and its
	// read/parse children are stamped after the fact.
	decodeSpan := root.BeginAt("decode", startAt)
	readSpan := decodeSpan.BeginAt("read", startAt)
	readSpan.EndAt(readAt)
	parseSpan := decodeSpan.BeginAt("parse", readAt)
	parseSpan.EndAt(parsedAt)
	decodeSpan.EndAt(parsedAt)
	rec := s.reqLog.start(spans, req.Op, shape, startAt)
	defer func() {
		if spans != nil {
			root.SetAttr("status", strconv.Itoa(code))
		}
		root.End()
		lat := time.Since(startAt)
		s.reqLog.finish(rec, code, lat)
		s.logRequest(spans, req.Op, shape, code, lat)
	}()

	t := newTask(req, shape, data)
	t.spans = spans
	t.root = root
	// The queue span opens before admit so the dispatcher can never pull the
	// task ahead of the handle existing; on rejection it closes here.
	admitSpan := root.Begin("admit")
	t.queueSpan = root.Begin("queue")
	serr = s.admit(t)
	admitSpan.End()
	if serr != nil {
		t.queueSpan.End()
		code = serr.code
		writeError(w, binary, serr.code, serr.retryAfter, "%s", serr.msg)
		t.release() // never queued: still this goroutine's alone
		return
	}
	select {
	case out := <-t.done:
		// The outcome hands the task and its payload back: no worker touches
		// either again.
		if out.err == nil {
			out.err = writeReply(w, binary, t, out)
		}
		if out.err != nil {
			code = out.err.code
			writeError(w, binary, out.err.code, out.err.retryAfter, "%s", out.err.msg)
		} else {
			code = http.StatusOK
		}
		t.release()
	case <-r.Context().Done():
		// The client went away; the batch still executes, the outcome
		// lands in the buffered channel and is garbage collected — and so
		// are the task and its payload buffer, which a worker may yet write
		// to and which are therefore not released.
		code = 499 // nginx's "client closed request", for the metrics only
	}
}

// bodyFirstRead is the most readBody sets aside before a byte of the body has
// arrived: what a client that declares a long body and then stalls can pin.
const bodyFirstRead = 1 << 20

// readBody reads the request body into a bytePool buffer the caller owns.
// The buffer starts at the declared length, or bodyFirstRead if that is
// less, and from there grows only as fast as bytes arrive, so a declared
// length is a hint and never a reservation. A body over maxBody is 413 —
// refused before a byte is read when the length is declared, cut off at the
// cap when it is chunked — and any other read failure (a client that resets,
// stalls or sends less than it declared) is 400.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, *statusError) {
	limit := s.maxBody()
	if r.ContentLength > limit {
		// Nor is the body drained afterwards: net/http would otherwise read
		// on before replying, in the hope of reusing the connection.
		w.Header().Set("Connection", "close")
		return nil, &statusError{code: http.StatusRequestEntityTooLarge,
			msg: fmt.Sprintf("declared length %d exceeds the %d-byte limit", r.ContentLength, limit)}
	}
	// net/http ends a body of declared length there, or fails it with
	// io.ErrUnexpectedEOF if it is shorter; the cap is for chunked bodies.
	body := http.MaxBytesReader(w, r.Body, limit)
	want := r.ContentLength // -1 when chunked
	buf := bytePool.get(int(min(max(want, 0), bodyFirstRead)))[:0]
	for {
		if len(buf) == cap(buf) {
			if int64(len(buf)) == want {
				return buf, nil
			}
			next := 4 * int64(cap(buf))
			if want >= 0 {
				next = min(next, want)
			}
			buf = bytePool.grow(buf, int(next))
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			bytePool.put(buf)
			code := http.StatusBadRequest
			var tooLarge *http.MaxBytesError
			if errors.As(err, &tooLarge) {
				code = http.StatusRequestEntityTooLarge
			}
			return nil, &statusError{code: code, msg: err.Error()}
		}
	}
}

// Header values net/http only reads, shared by every reply.
var (
	contentTypeJSON   = []string{"application/json"}
	contentTypeBinary = []string{"application/octet-stream"}
)

// writeReply renders a resolved task's reply into one buffer and writes it
// with its Content-Length. A transform is rendered straight from task.data
// into a bytePool buffer; the small pipeline replies go through
// encoding/json and EncodeResponse.
func writeReply(w http.ResponseWriter, binary bool, t *task, out taskOutcome) *statusError {
	encodeSpan := t.root.Begin("encode")
	defer encodeSpan.End()
	renderSpan := encodeSpan.Begin("render")
	var reply, pooled []byte
	var err error
	switch {
	case out.resp == nil && binary:
		pooled = bytePool.get(transformFrameSize(len(t.data)))
		reply = appendTransformFrame(pooled[:0], t.data, out.batchSize, t.spans.TraceID())
	case out.resp == nil:
		pooled = bytePool.get(transformJSONSize(len(t.data)))
		reply, err = appendTransformJSON(pooled[:0], t.data, out.batchSize, t.spans.TraceID())
	case binary:
		reply = EncodeResponse(out.resp)
	default:
		// json.Encoder's rendering: Marshal plus a newline.
		reply, err = json.Marshal(out.resp)
		reply = append(reply, '\n')
	}
	renderSpan.End()
	defer bytePool.put(pooled) // after the write; a nil buffer is not kept
	if err != nil {
		// Only a transform that overflowed to ±Inf or NaN gets here: the
		// request was well-formed, but its result has no JSON spelling.
		return &statusError{code: http.StatusUnprocessableEntity, msg: fmt.Sprintf("transform result not representable in JSON: %v", err)}
	}
	writeSpan := encodeSpan.Begin("write")
	h := w.Header()
	h["Content-Type"] = contentTypeJSON
	if binary {
		h["Content-Type"] = contentTypeBinary
	}
	h.Set("Content-Length", strconv.Itoa(len(reply)))
	_, _ = w.Write(reply) // a failed write is the client's departure; nothing to report to
	writeSpan.End()
	return nil
}

// maxHealthShapes bounds the shapes-served set so a shape-scanning client
// cannot grow the /healthz body (or the server's memory) without bound.
const maxHealthShapes = 256

// shapeKey returns the request's ShapeKey and records it in the bounded
// shapes-served set. The key is built once per request, and for a shape
// already in the set not allocated at all.
func (s *Server) shapeKey(req *Request) string {
	var buf [48]byte
	b := req.appendShapeKey(buf[:0])
	s.shapeMu.Lock()
	defer s.shapeMu.Unlock()
	key, ok := s.shapesServed[string(b)]
	if !ok {
		key = string(b)
		if len(s.shapesServed) < maxHealthShapes {
			s.shapesServed[key] = key
		}
	}
	return key
}

// Health is the /healthz JSON body: one self-describing signal for load
// balancers, the cluster health prober and humans alike. The status-code
// contract predates the body and still holds — 200 while serving, 503 while
// draining — so clients that only look at the status line keep working.
type Health struct {
	// Status is "ok" or "draining" (matching the HTTP status code).
	Status string `json:"status"`
	// Workers is the batch-executing goroutine count.
	Workers int `json:"workers"`
	// Queue and QueueCap are the admission queue's current depth and bound.
	Queue    int `json:"queue"`
	QueueCap int `json:"queue_cap"`
	// Shapes lists the distinct transform shape keys this server has seen
	// (sorted, bounded) — what its plan cache is warm for.
	Shapes  []string `json:"shapes,omitempty"`
	UptimeS float64  `json:"uptime_s"`
}

// health snapshots the server's live state.
func (s *Server) health() (Health, int) {
	code := http.StatusOK
	h := Health{
		Status:   "ok",
		Workers:  s.cfg.Workers,
		Queue:    len(s.queue),
		QueueCap: s.cfg.QueueDepth,
		UptimeS:  time.Since(s.start).Seconds(),
	}
	if s.Draining() {
		code = http.StatusServiceUnavailable
		h.Status = "draining"
	}
	s.shapeMu.Lock()
	for shape := range s.shapesServed {
		h.Shapes = append(h.Shapes, shape)
	}
	s.shapeMu.Unlock()
	sort.Strings(h.Shapes)
	return h, code
}

// handleHealthz reports liveness: 200 while serving, 503 while draining —
// the signal load balancers and the cluster prober use to stop routing
// before the listener goes away — with a JSON body describing the state
// (queue depth, workers, shapes served) so machines and humans read the
// same signal.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	h, code := s.health()
	writeJSON(w, code, h)
	mReqTotal.With("healthz", strconv.Itoa(code)).Inc()
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError replies with a problem description; retryAfter > 0 sets the
// Retry-After backpressure header. Binary-format clients get plain text
// (they only read the status line and headers on errors).
func writeError(w http.ResponseWriter, binary bool, code, retryAfter int, format string, args ...any) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	msg := fmt.Sprintf(format, args...)
	if binary {
		http.Error(w, msg, code)
		return
	}
	writeJSON(w, code, errorBody{Error: msg})
}
