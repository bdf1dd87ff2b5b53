package cluster

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// The /fft front end. The router peeks the route key out of the encoded
// request (serve.PeekRoute — no payload decode), asks the ring for the
// owner and its failover successors, and relays the body verbatim. A
// worker 503 or a transport failure moves to the next replica after a
// jittered backoff; a request fails only when every candidate is
// exhausted.
//
// Retry-After contract: a 503 from a worker is an instruction to the
// *router* while failover is still in progress — propagating it to the
// client mid-failover would tell the client to back off from a cluster
// that still has capacity on the next replica. The header therefore
// reaches the client only with the final 503, carrying the largest
// backoff any worker asked for.
//
// Trace contract: the request body's trace ID rides to the worker
// unchanged, so the worker's span tree keys under the same ID as the
// router's route/attempt spans — one request, one ID, spans on both
// tiers. The router's side is visible under "recent" at
// /debug/fftx/cluster, the worker's at its /debug/fftx/requests, and the
// Fftx-Worker response header says which worker to ask.

// maxProxyBody mirrors the worker-side request bound.
func (rt *Router) maxProxyBody() int64 {
	return int64(rt.cfg.MaxElements)*16 + 1<<16
}

// handleFFT routes one request: peek key → candidates → bounded failover.
func (rt *Router) handleFFT(w http.ResponseWriter, r *http.Request) {
	startAt := time.Now()
	code := 0
	defer func() {
		mRouteTotal.With(fmt.Sprint(code)).Inc()
		mRouteSeconds.Observe(time.Since(startAt).Seconds())
	}()
	if r.Method != http.MethodPost {
		code = http.StatusMethodNotAllowed
		writeProxyError(w, false, code, 0, "POST only")
		return
	}
	binary := r.Header.Get("Content-Type") == "application/octet-stream"
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.maxProxyBody()))
	if err != nil {
		code = http.StatusRequestEntityTooLarge
		writeProxyError(w, binary, code, 0, "request body rejected: %v", err)
		return
	}
	// A peek failure leaves key empty: the request still routes (round-
	// robin) so the worker's full decoder owns the canonical 400.
	key, traceID, _ := serve.PeekRoute(body, binary)

	var spans *trace.SpanSet
	if traceID != "" {
		spans = trace.NewSpanSet(traceID)
		w.Header().Set("Fftx-Trace-Id", traceID)
	}
	root := spans.BeginAt("route", startAt)
	root.SetAttr("key", key)
	attempts, worker := 0, ""
	defer func() {
		root.SetAttr("status", fmt.Sprint(code))
		root.End()
		rt.routeLog.add(spans, key, worker, attempts, code, startAt)
	}()

	candidates := rt.candidates(key)
	if len(candidates) == 0 {
		code = http.StatusServiceUnavailable
		writeProxyError(w, binary, code, 1, "no cluster workers available")
		return
	}

	maxRetryAfter := 0
	lastErr := "unavailable"
	for i, addr := range candidates {
		if i > 0 {
			mRetries.With(lastErr).Inc()
			sleepJittered(rt.cfg.RetryBackoff, i)
		}
		attempts = i + 1
		resp, err := rt.attempt(root, r, addr, body)
		if err != nil {
			lastErr = "transport"
			rt.noteWorkerError(addr, err)
			continue
		}
		if resp.StatusCode == http.StatusServiceUnavailable && i+1 < len(candidates) {
			// The worker is shedding load; remember its backoff ask and
			// fail over. Drain the reply so the connection is reusable.
			if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > maxRetryAfter {
				maxRetryAfter = ra
			}
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
			resp.Body.Close()
			lastErr = "unavailable"
			continue
		}
		code = resp.StatusCode
		worker = addr
		rt.relay(w, resp, addr, maxRetryAfter)
		return
	}
	// Failover exhausted: only now does the backpressure signal reach the
	// client, with the largest Retry-After any worker asked for.
	mExhausted.Inc()
	code = http.StatusServiceUnavailable
	if maxRetryAfter < 1 {
		maxRetryAfter = 1
	}
	writeProxyError(w, binary, code, maxRetryAfter,
		"all %d replica attempts failed (last: %s)", len(candidates), lastErr)
}

// attempt forwards the buffered request to one worker. The returned
// response's body is open; the caller relays or discards it.
func (rt *Router) attempt(parent trace.SpanRef, r *http.Request, addr string, body []byte) (*http.Response, error) {
	span := parent.Begin("attempt")
	defer span.End()
	span.SetAttr("worker", addr)
	req, err := http.NewRequestWithContext(r.Context(), http.MethodPost, addr+"/fft", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ct := r.Header.Get("Content-Type"); ct != "" {
		req.Header.Set("Content-Type", ct)
	}
	resp, err := rt.cfg.Client.Do(req)
	if err != nil {
		span.SetAttr("error", "transport")
		return nil, err
	}
	span.SetAttr("status", fmt.Sprint(resp.StatusCode))
	return resp, nil
}

// relay streams a worker reply to the client, stamping Fftx-Worker so
// clients (and the cluster smoke's both-workers check) can attribute it.
// A final 503 additionally carries the failover-wide Retry-After.
func (rt *Router) relay(w http.ResponseWriter, resp *http.Response, addr string, maxRetryAfter int) {
	defer resp.Body.Close()
	for _, h := range []string{"Content-Type", "Fftx-Trace-Id", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	if resp.StatusCode == http.StatusServiceUnavailable {
		if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && ra > maxRetryAfter {
			maxRetryAfter = ra
		}
		if maxRetryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(maxRetryAfter))
		}
	}
	w.Header().Set("Fftx-Worker", addr)
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
	if resp.StatusCode == http.StatusOK {
		mRouted.With(addr).Inc()
		rt.countRouted(addr)
	}
}

// noteWorkerError records a request-path transport failure on the member
// for the topology view. State stays with the prober: a single failed
// exchange fails over, it does not eject.
func (rt *Router) noteWorkerError(addr string, err error) {
	rt.mu.Lock()
	if m, ok := rt.members[addr]; ok {
		m.lastErr = err.Error()
	}
	rt.mu.Unlock()
}

// sleepJittered backs off before retry i (1-based among retries): the base
// doubles per attempt, and the actual wait lands uniformly in
// [base/2, base) so synchronized clients do not re-converge on the same
// struggling worker — bounded, never a hot loop.
func sleepJittered(base time.Duration, i int) {
	d := base << (i - 1)
	if cap := 100 * time.Millisecond; d > cap {
		d = cap
	}
	half := d / 2
	time.Sleep(half + time.Duration(rand.Int63n(int64(half)+1)))
}

// writeProxyError mirrors the worker's error reply shapes: JSON for JSON
// clients, plain text for binary ones, Retry-After on backpressure.
func writeProxyError(w http.ResponseWriter, binary bool, code, retryAfter int, format string, args ...any) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(retryAfter))
	}
	msg := fmt.Sprintf(format, args...)
	if binary {
		http.Error(w, msg, code)
		return
	}
	writeJSON(w, code, map[string]string{"error": msg})
}

// RouteView is one recently routed traced request in the topology payload.
type RouteView struct {
	TraceID    string          `json:"trace_id"`
	Key        string          `json:"key,omitempty"`
	Worker     string          `json:"worker,omitempty"`
	Attempts   int             `json:"attempts"`
	Status     int             `json:"status"`
	StartNS    int64           `json:"start_ns"`
	LatencySec float64         `json:"latency_s"`
	Spans      *trace.SpanTree `json:"spans,omitempty"`
}

// routeLog is the bounded ring of recently routed traced requests.
type routeLog struct {
	mu       chan struct{} // 1-token mutex; kept trivial on the route path
	capacity int
	recent   []RouteView
}

func newRouteLog(capacity int) *routeLog {
	l := &routeLog{mu: make(chan struct{}, 1), capacity: capacity}
	l.mu <- struct{}{}
	return l
}

// add records one finished traced route (no-op for untraced requests).
func (l *routeLog) add(spans *trace.SpanSet, key, worker string, attempts, status int, start time.Time) {
	if spans == nil {
		return
	}
	v := RouteView{
		TraceID:    spans.TraceID(),
		Key:        key,
		Worker:     worker,
		Attempts:   attempts,
		Status:     status,
		StartNS:    start.UnixNano(),
		LatencySec: time.Since(start).Seconds(),
		Spans:      spans.Tree(),
	}
	<-l.mu
	l.recent = append(l.recent, v)
	if len(l.recent) > l.capacity {
		l.recent = l.recent[len(l.recent)-l.capacity:]
	}
	l.mu <- struct{}{}
}

// dump returns the recent routes, newest first.
func (l *routeLog) dump() []RouteView {
	<-l.mu
	out := make([]RouteView, len(l.recent))
	for i, v := range l.recent {
		out[len(out)-1-i] = v
	}
	l.mu <- struct{}{}
	return out
}
