package serve

import (
	"context"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"repro/internal/trace"
)

// Live serving introspection: the in-flight/recent request log behind
// /debug/fftx/requests, a JSON snapshot cheap enough to curl against a
// loaded server; fftxtrace -requests renders it as span-tree timelines.

// reqRecord tracks one traced request from admission to response. Fields
// past `start` are written once by requestLog.finish under the log's mutex.
type reqRecord struct {
	seq      uint64
	spans    *trace.SpanSet
	op       string
	shape    string
	start    time.Time
	status   int
	latency  float64
	inflight bool
}

// requestLog holds the traced requests currently in flight plus a bounded
// ring of recently finished ones. A nil log (and nil records, which is what
// untraced requests carry) is a no-op.
type requestLog struct {
	mu       sync.Mutex
	capacity int
	seq      uint64
	inflight map[uint64]*reqRecord
	recent   []*reqRecord // oldest first, bounded by capacity
}

func newRequestLog(capacity int) *requestLog {
	return &requestLog{capacity: capacity, inflight: map[uint64]*reqRecord{}}
}

// start registers a traced request and returns its record (nil for untraced
// requests, which makes every later call on it a no-op).
func (l *requestLog) start(spans *trace.SpanSet, op, shape string, at time.Time) *reqRecord {
	if l == nil || spans == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	rec := &reqRecord{seq: l.seq, spans: spans, op: op, shape: shape, start: at, inflight: true}
	l.inflight[rec.seq] = rec
	return rec
}

// finish moves a record from the in-flight set to the recent ring.
func (l *requestLog) finish(rec *reqRecord, status int, latency time.Duration) {
	if l == nil || rec == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	delete(l.inflight, rec.seq)
	rec.inflight = false
	rec.status = status
	rec.latency = latency.Seconds()
	l.recent = append(l.recent, rec)
	if len(l.recent) > l.capacity {
		l.recent = l.recent[len(l.recent)-l.capacity:]
	}
}

// RequestView is one entry of the /debug/fftx/requests payload.
type RequestView struct {
	Seq        uint64          `json:"seq"`
	TraceID    string          `json:"trace_id"`
	Op         string          `json:"op"`
	Shape      string          `json:"shape,omitempty"`
	StartNS    int64           `json:"start_ns"`
	Status     int             `json:"status,omitempty"`
	LatencySec float64         `json:"latency_s,omitempty"`
	InFlight   bool            `json:"in_flight"`
	Spans      *trace.SpanTree `json:"spans"`
}

// RequestDump is the /debug/fftx/requests payload: traced requests currently
// executing plus the most recent finished ones, newest first.
type RequestDump struct {
	Inflight []RequestView `json:"inflight"`
	Recent   []RequestView `json:"recent"`
}

func (l *requestLog) dump() RequestDump {
	l.mu.Lock()
	inflight := make([]*reqRecord, 0, len(l.inflight))
	for _, rec := range l.inflight {
		inflight = append(inflight, rec)
	}
	recent := append([]*reqRecord(nil), l.recent...)
	l.mu.Unlock()

	sort.Slice(inflight, func(i, j int) bool { return inflight[i].seq < inflight[j].seq })
	out := RequestDump{Inflight: []RequestView{}, Recent: []RequestView{}}
	for _, rec := range inflight {
		out.Inflight = append(out.Inflight, rec.view())
	}
	for i := len(recent) - 1; i >= 0; i-- { // newest first
		out.Recent = append(out.Recent, recent[i].view())
	}
	return out
}

func (rec *reqRecord) view() RequestView {
	return RequestView{
		Seq:        rec.seq,
		TraceID:    rec.spans.TraceID(),
		Op:         rec.op,
		Shape:      rec.shape,
		StartNS:    rec.start.UnixNano(),
		Status:     rec.status,
		LatencySec: rec.latency,
		InFlight:   rec.inflight,
		Spans:      rec.spans.Tree(),
	}
}

// handleDebugRequests serves the span timelines of in-flight and recent
// traced requests.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.reqLog.dump())
}

// logRequest emits the structured completion line of a traced request: Debug
// for successes, Warn for error statuses, always keyed by trace ID so log
// lines join to /debug/fftx/requests and to histogram exemplars.
func (s *Server) logRequest(spans *trace.SpanSet, op, shape string, code int, latency time.Duration) {
	if spans == nil {
		return
	}
	level := slog.LevelDebug
	if code >= 400 {
		level = slog.LevelWarn
	}
	ctx := context.Background()
	if !s.logger.Enabled(ctx, level) {
		return
	}
	attrs := []any{
		"trace_id", spans.TraceID(),
		"op", op,
		"status", code,
		"latency_ms", float64(latency.Microseconds()) / 1e3,
	}
	if shape != "" {
		attrs = append(attrs, "shape", shape)
	}
	s.logger.Log(ctx, level, "fft request", attrs...)
}
