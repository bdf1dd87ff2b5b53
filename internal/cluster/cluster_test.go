package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/serve"
	"repro/internal/trace"
)

// fakeWorker is a scriptable worker: /healthz and /fft replies swap under
// a mutex so tests drive health transitions and failover paths directly.
type fakeWorker struct {
	srv *httptest.Server

	mu          sync.Mutex
	healthCode  int
	healthState string
	fftCode     int
	retryAfter  string
	served      int
}

func newFakeWorker(t *testing.T) *fakeWorker {
	t.Helper()
	f := &fakeWorker{healthCode: http.StatusOK, healthState: "ok", fftCode: http.StatusOK}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		code, state := f.healthCode, f.healthState
		f.mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_ = json.NewEncoder(w).Encode(serve.Health{Status: state, Workers: 1})
	})
	mux.HandleFunc("/fft", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		code, ra := f.fftCode, f.retryAfter
		f.served++
		f.mu.Unlock()
		if ra != "" {
			w.Header().Set("Retry-After", ra)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		_, _ = fmt.Fprintf(w, `{"batch_size":1}`)
	})
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeWorker) addr() string { return f.srv.URL }

func (f *fakeWorker) set(healthCode int, healthState string, fftCode int, retryAfter string) {
	f.mu.Lock()
	f.healthCode, f.healthState, f.fftCode, f.retryAfter = healthCode, healthState, fftCode, retryAfter
	f.mu.Unlock()
}

func (f *fakeWorker) servedCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.served
}

// testRouterConfig admits on the first healthy probe and fails fast, so
// tests drive state changes with explicit probeAll calls.
func testRouterConfig(peers ...string) Config {
	return Config{
		Peers:         peers,
		MaxAttempts:   2,
		RetryBackoff:  time.Millisecond,
		ProbeInterval: time.Hour, // probes run manually
		ProbeTimeout:  time.Second,
		FailAfter:     1,
		ReadmitAfter:  1,
	}
}

// newTestRouter builds a router whose routes the test's end checks: by
// then every traced route (and every attempt it made) must have closed its
// spans. The route log is sized to keep every route a test sends.
func newTestRouter(t *testing.T, cfg Config) *Router {
	t.Helper()
	if cfg.RecentRoutes == 0 {
		cfg.RecentRoutes = 1 << 12
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		routes := rt.routeLog.dump()
		if len(routes) == rt.cfg.RecentRoutes {
			t.Errorf("the route log is full at %d routes: older ones went unchecked", len(routes))
		}
		for _, v := range routes {
			for _, msg := range openSpans(v.Spans) {
				t.Errorf("route of %s (status %d): %s", v.Key, v.Status, msg)
			}
		}
	})
	return rt
}

// openSpans lists the spans of a traced request's tree that never ended.
func openSpans(tree *trace.SpanTree) []string {
	var open []string
	for _, sp := range tree.Spans {
		if sp.EndNS == 0 {
			open = append(open, fmt.Sprintf("trace %s: span %q never ended", tree.TraceID, sp.Name))
		}
	}
	return open
}

// workerOpenSpans is the span check of a real worker, read after its
// shutdown from the worker's own /debug/fftx/requests record on mux. It
// also reports requests still in flight and records the log dropped.
func workerOpenSpans(t *testing.T, mux *http.ServeMux) []string {
	t.Helper()
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/fftx/requests", nil))
	var dump serve.RequestDump
	if err := json.Unmarshal(rec.Body.Bytes(), &dump); err != nil {
		t.Fatalf("worker request log: %v", err)
	}
	var open []string
	for _, v := range dump.Inflight {
		open = append(open, fmt.Sprintf("trace %s: still in flight after shutdown", v.TraceID))
	}
	if n := len(dump.Recent); n > 0 && uint64(n) < dump.Recent[0].Seq {
		open = append(open, fmt.Sprintf("%d traced requests fell out of the request log unchecked", dump.Recent[0].Seq-uint64(n)))
	}
	for _, v := range dump.Recent {
		open = append(open, openSpans(v.Spans)...)
	}
	return open
}

// transformBody renders a minimal routable JSON transform request. It
// carries a fresh client trace ID, so the router records the request's
// route and attempt spans for the span check of newTestRouter.
func transformBody(t *testing.T, dims []int) []byte {
	t.Helper()
	n := 1
	for _, d := range dims {
		n *= d
	}
	body, err := json.Marshal(map[string]any{
		"op": "transform", "dims": dims, "data": make([]float64, 2*n), "trace_id": trace.NewTraceID(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// post runs one request through the router's handler directly.
func post(rt *Router, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/fft", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	rt.handleFFT(rec, req)
	return rec
}

// orderFor returns the failover preference order the live ring gives body.
func orderFor(t *testing.T, rt *Router, body []byte) []string {
	t.Helper()
	key, _, err := serve.PeekRoute(body, false)
	if err != nil || key == "" {
		t.Fatalf("PeekRoute: key=%q err=%v", key, err)
	}
	order := rt.candidates(key)
	if len(order) < 2 {
		t.Fatalf("want ≥2 candidates, got %v", order)
	}
	return order
}

func workerByAddr(t *testing.T, addr string, ws ...*fakeWorker) *fakeWorker {
	t.Helper()
	for _, w := range ws {
		if w.addr() == addr {
			return w
		}
	}
	t.Fatalf("no fake worker at %q", addr)
	return nil
}

// TestFailoverOn503 pins the Retry-After contract: a worker 503 mid-failover
// is the router's business — the client sees the next replica's 200 and no
// Retry-After header.
func TestFailoverOn503(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	rt := newTestRouter(t, testRouterConfig(w1.addr(), w2.addr()))
	rt.probeAll()

	body := transformBody(t, []int{4, 4})
	order := orderFor(t, rt, body)
	workerByAddr(t, order[0], w1, w2).set(http.StatusOK, "ok", http.StatusServiceUnavailable, "7")

	rec := post(rt, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via failover; body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Fftx-Worker"); got != order[1] {
		t.Errorf("Fftx-Worker = %q, want failover target %q", got, order[1])
	}
	if ra := rec.Header().Get("Retry-After"); ra != "" {
		t.Errorf("Retry-After = %q leaked to the client though failover succeeded", ra)
	}
}

// TestRetryAfterOnExhaustion pins the other half of the contract: when every
// replica 503s, the client gets a 503 carrying the largest Retry-After any
// worker asked for.
func TestRetryAfterOnExhaustion(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	rt := newTestRouter(t, testRouterConfig(w1.addr(), w2.addr()))
	rt.probeAll()

	body := transformBody(t, []int{4, 4})
	order := orderFor(t, rt, body)
	workerByAddr(t, order[0], w1, w2).set(http.StatusOK, "ok", http.StatusServiceUnavailable, "3")
	workerByAddr(t, order[1], w1, w2).set(http.StatusOK, "ok", http.StatusServiceUnavailable, "7")

	rec := post(rt, body)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 after exhaustion", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "7" {
		t.Errorf("Retry-After = %q, want the max ask 7", ra)
	}
	if w1.servedCount()+w2.servedCount() != 2 {
		t.Errorf("attempts = %d, want MaxAttempts = 2", w1.servedCount()+w2.servedCount())
	}
}

// TestFailoverOnTransportError: a dead primary (connection refused) fails
// over without the client noticing.
func TestFailoverOnTransportError(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	rt := newTestRouter(t, testRouterConfig(w1.addr(), w2.addr()))
	rt.probeAll()

	body := transformBody(t, []int{4, 4})
	order := orderFor(t, rt, body)
	workerByAddr(t, order[0], w1, w2).srv.CloseClientConnections()
	workerByAddr(t, order[0], w1, w2).srv.Close()

	rec := post(rt, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want 200 via transport failover; body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("Fftx-Worker"); got != order[1] {
		t.Errorf("Fftx-Worker = %q, want %q", got, order[1])
	}
}

// TestShapeAffinity: the same shape routes to the same worker every time,
// and different shapes spread.
func TestShapeAffinity(t *testing.T) {
	w1, w2, w3 := newFakeWorker(t), newFakeWorker(t), newFakeWorker(t)
	rt := newTestRouter(t, testRouterConfig(w1.addr(), w2.addr(), w3.addr()))
	rt.probeAll()

	owners := map[string]string{}
	for _, dims := range [][]int{{4, 4}, {8, 8}, {4, 4, 4}, {16}, {8, 4}} {
		body := transformBody(t, dims)
		first := post(rt, body).Header().Get("Fftx-Worker")
		for i := 0; i < 3; i++ {
			if got := post(rt, body).Header().Get("Fftx-Worker"); got != first {
				t.Fatalf("shape %v flapped %q → %q", dims, first, got)
			}
		}
		owners[first] = fmt.Sprint(dims)
	}
	if len(owners) < 2 {
		t.Errorf("5 shapes all landed on one worker of 3 — affinity without spread")
	}
}

// TestProberEjectsAndReadmits drives one worker through
// up → draining → up → down → up and checks the ring follows.
func TestProberEjectsAndReadmits(t *testing.T) {
	w1, w2 := newFakeWorker(t), newFakeWorker(t)
	cfg := testRouterConfig(w1.addr(), w2.addr())
	cfg.FailAfter = 2
	rt := newTestRouter(t, cfg)

	stateOf := func(addr string) State {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		return rt.members[addr].state
	}
	ringSize := func() int {
		rt.mu.RLock()
		defer rt.mu.RUnlock()
		return rt.ring.Size()
	}

	rt.probeAll()
	if s := stateOf(w1.addr()); s != StateUp {
		t.Fatalf("after healthy probe: state = %s, want up", s)
	}
	if ringSize() != 2 {
		t.Fatalf("ring size = %d, want 2", ringSize())
	}

	// Draining ejects on the very next probe.
	w1.set(http.StatusServiceUnavailable, "draining", http.StatusServiceUnavailable, "1")
	rt.probeAll()
	if s := stateOf(w1.addr()); s != StateDraining {
		t.Fatalf("after drain probe: state = %s, want draining", s)
	}
	if ringSize() != 1 {
		t.Fatalf("ring size = %d after drain, want 1", ringSize())
	}

	// Recovery re-admits after ReadmitAfter healthy probes.
	w1.set(http.StatusOK, "ok", http.StatusOK, "")
	rt.probeAll()
	if s := stateOf(w1.addr()); s != StateUp {
		t.Fatalf("after recovery probe: state = %s, want up", s)
	}

	// Outright death needs FailAfter consecutive misses.
	w1.srv.Close()
	rt.probeAll()
	if s := stateOf(w1.addr()); s != StateUp {
		t.Fatalf("one miss with FailAfter=2 already moved state to %s", s)
	}
	rt.probeAll()
	if s := stateOf(w1.addr()); s != StateDown {
		t.Fatalf("after %d misses: state = %s, want down", cfg.FailAfter, s)
	}
	if ringSize() != 1 {
		t.Fatalf("ring size = %d after death, want 1", ringSize())
	}
}

// TestJoinLeaveEndpoints drives the membership endpoints end to end.
func TestJoinLeaveEndpoints(t *testing.T) {
	w1 := newFakeWorker(t)
	rt := newTestRouter(t, testRouterConfig())

	do := func(path, addr string) *httptest.ResponseRecorder {
		body, _ := json.Marshal(map[string]string{"addr": addr})
		req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		rt.cfg.Mux.ServeHTTP(rec, req)
		return rec
	}

	if rec := do("/cluster/join", w1.addr()); rec.Code != http.StatusOK {
		t.Fatalf("join: %d %s", rec.Code, rec.Body)
	}
	top := rt.Topology()
	if len(top.Members) != 1 || top.Members[0].State != StateDown {
		t.Fatalf("after join: members = %+v, want one down (pending probe)", top.Members)
	}
	rt.probeAll()
	if top = rt.Topology(); top.Members[0].State != StateUp {
		t.Fatalf("after probe: state = %s, want up", top.Members[0].State)
	}

	if rec := do("/cluster/leave", w1.addr()); rec.Code != http.StatusOK {
		t.Fatalf("leave: %d %s", rec.Code, rec.Body)
	}
	if top = rt.Topology(); top.Members[0].State != StateDraining {
		t.Fatalf("after leave: state = %s, want draining", top.Members[0].State)
	}
	if rec := do("/cluster/leave", "http://127.0.0.1:1"); rec.Code != http.StatusNotFound {
		t.Fatalf("leave of unknown member: %d, want 404", rec.Code)
	}
	if rec := do("/cluster/join", "not a url at all ::"); rec.Code != http.StatusBadRequest {
		t.Fatalf("malformed join: %d, want 400", rec.Code)
	}
}

// TestRouterHealthz checks the router's own health body.
func TestRouterHealthz(t *testing.T) {
	rt := newTestRouter(t, testRouterConfig())
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	rt.cfg.Mux.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz: %d", rec.Code)
	}
	var h struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
		t.Fatal(err)
	}
	if h.Role != "router" || h.Status != "degraded" {
		t.Errorf("healthz = %+v, want role router, status degraded (no workers)", h)
	}
}

// TestNoWorkers: a router with an empty ring sheds immediately with a 503.
func TestNoWorkers(t *testing.T) {
	rt := newTestRouter(t, testRouterConfig())
	rec := post(rt, transformBody(t, []int{4, 4}))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 with no workers", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("no Retry-After on an empty-ring 503")
	}
	if !strings.Contains(rec.Body.String(), "no cluster workers") {
		t.Errorf("body %q does not explain the empty ring", rec.Body)
	}
}

// TestUnroutableBodyStillProxies: a body PeekRoute cannot parse routes
// round-robin so a worker's full decoder owns the canonical 400.
func TestUnroutableBodyStillProxies(t *testing.T) {
	w1 := newFakeWorker(t)
	rt := newTestRouter(t, testRouterConfig(w1.addr()))
	rt.probeAll()
	rec := post(rt, []byte(`{"op":"transform","dims":`)) // truncated JSON
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, want the fake worker's reply", rec.Code)
	}
	if w1.servedCount() != 1 {
		t.Fatalf("worker served %d, want the unroutable request proxied once", w1.servedCount())
	}
}

// TestEndToEndFailover is the cluster drill against real fftxd workers:
// mixed-shape load in both wire formats through a router, answered by both
// workers, while one worker drains mid-run. Zero request failures, and the
// topology reflects the ejection.
func TestEndToEndFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second cluster drill")
	}
	// Every body carries a trace ID, so the router and the workers trace
	// every request; the workers' request logs keep them all for the span
	// check after shutdown.
	newWorker := func() *serve.Server {
		mux := http.NewServeMux()
		s := serve.New(serve.Config{Addr: "127.0.0.1:0", Workers: 2, TraceSample: 0, Mux: mux, RequestLogSize: 1 << 12})
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			for _, msg := range workerOpenSpans(t, mux) {
				t.Errorf("worker %s: %s", s.Addr(), msg)
			}
		})
		return s
	}
	s1, s2 := newWorker(), newWorker()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s1.Shutdown(ctx)
		_ = s2.Shutdown(ctx)
	}()

	cfg := Config{
		Peers:         []string{s1.Addr(), s2.Addr()},
		ProbeInterval: 20 * time.Millisecond,
		ReadmitAfter:  1,
	}
	rt := newTestRouter(t, cfg)
	if err := rt.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = rt.Shutdown(ctx)
	}()

	upCount := func() int {
		n := 0
		for _, m := range rt.Topology().Members {
			if m.State == StateUp {
				n++
			}
		}
		return n
	}
	waitUp := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for upCount() != want {
			if time.Now().After(deadline) {
				t.Fatalf("up members never reached %d: %+v", want, rt.Topology().Members)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	waitUp(2)

	// The mix: each shape in both wire formats. The ring must make each
	// worker the primary of some shape, so that replies name both; twelve
	// shapes nearly always do, and up to eight 1-D shapes are added until
	// they do.
	mix := [][]int{{4, 4}, {8, 8}, {4, 4, 4}, {16}, {8, 4}, {32}, {2, 4, 4}, {16, 4}, {4, 16}, {64}, {8, 2}, {2, 2, 2}}
	owners := map[string]bool{}
	for _, d := range mix {
		owners[orderFor(t, rt, transformBody(t, d))[0]] = true
	}
	for n := 128; len(owners) < 2 && n <= 1<<14; n *= 2 {
		mix = append(mix, []int{n})
		owners[orderFor(t, rt, transformBody(t, []int{n}))[0]] = true
	}
	if len(owners) < 2 {
		t.Fatalf("the ring makes %v the primary of all %d shapes", owners, len(mix))
	}
	type body struct {
		contentType string
		data        []byte
	}
	var bodies []body
	for _, d := range mix {
		n := 1
		for _, x := range d {
			n *= x
		}
		bin, err := serve.EncodeRequest(&serve.Request{Dims: d, Batch: 1, Data: make([]float64, 2*n), TraceID: trace.NewTraceID()})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies,
			body{"application/json", transformBody(t, d)},
			body{"application/octet-stream", bin})
	}

	// Closed-loop load through the router: each client cycles through the
	// whole mix. Progress is counted in replies, not waited out.
	type reply struct {
		code   int
		worker string
		err    error
	}
	const clients = 4
	replies := make(chan reply, 64)
	done := make(chan struct{})
	client := &http.Client{Timeout: 10 * time.Second}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; ; i++ {
				b := bodies[i%len(bodies)]
				var r reply
				resp, err := client.Post(rt.URL()+"/fft", b.contentType, bytes.NewReader(b.data))
				if err != nil {
					r.err = err
				} else {
					_, _ = io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
					r.code, r.worker = resp.StatusCode, resp.Header.Get("Fftx-Worker")
				}
				select {
				case replies <- r:
				case <-done:
					return
				}
				if err != nil {
					return
				}
			}
		}(c)
	}
	// stop ends the load and closes the clients' idle connections: a
	// connection dialled but never used would hold the router's Shutdown
	// for net/http's 5 s grace of a new connection.
	stop := sync.OnceFunc(func() {
		close(done)
		wg.Wait()
		close(replies)
		client.CloseIdleConnections()
	})
	defer stop()

	served := 0
	check := func(r reply) {
		t.Helper()
		if r.err != nil {
			t.Fatalf("request failed during the drill after %d replies: %v", served, r.err)
		}
		if r.code != http.StatusOK {
			t.Fatalf("reply %d: status %d, want 200", served, r.code)
		}
		served++
	}
	// collect checks the next n replies. One client runs through the whole
	// mix within any clients·len(bodies) replies.
	collect := func(n int) map[string]int {
		t.Helper()
		workers := map[string]int{}
		timeout := time.After(10 * time.Second)
		for i := 0; i < n; i++ {
			select {
			case r := <-replies:
				check(r)
				workers[r.worker]++
			case <-timeout:
				t.Fatalf("only %d of %d replies within 10s", i, n)
			}
		}
		return workers
	}
	phase := clients * len(bodies)

	// Before the drain both workers answer.
	before := collect(phase)
	for _, s := range []*serve.Server{s1, s2} {
		if before["http://"+s.Addr()] == 0 {
			t.Errorf("no reply named worker %s before the drain: %v", s.Addr(), before)
		}
	}

	// One worker drains under load. The router must absorb the loss: every
	// request is answered, through the drain and the ring's ejection.
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := s1.Shutdown(drainCtx); err != nil {
		t.Errorf("worker drain: %v", err)
	}
	cancel()
	collect(phase)
	waitUp(1)
	stop()
	for r := range replies {
		check(r)
	}

	// The ring must have ejected the drained worker...
	rt.mu.RLock()
	s1state := rt.members["http://"+s1.Addr()].state
	rt.mu.RUnlock()
	if s1state == StateUp {
		t.Errorf("drained worker still up in the topology")
	}
	// ...and the survivor owns the whole ring.
	top := rt.Topology()
	if top.Ring.Members != 1 {
		t.Errorf("ring members = %d, want 1", top.Ring.Members)
	}
}
