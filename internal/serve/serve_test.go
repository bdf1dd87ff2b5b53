package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fft"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// startServer boots a server on an ephemeral port and tears it down with the
// test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	return start(t, New(keepTraces(cfg)), func() {})
}

// startHeld is startServer with every batch execution held until the
// returned release runs, so a test orders its steps on executing, pending
// and queued states instead of timing them. release is idempotent and also
// runs at cleanup, ahead of the shutdown, which would otherwise wait on the
// held worker.
func startHeld(t *testing.T, cfg Config) (*Server, func()) {
	t.Helper()
	s := New(keepTraces(cfg))
	s.execHold = make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(s.execHold) }) }
	return start(t, s, release), release
}

// keepTraces sizes the request log to hold every traced request a test
// sends, so the span check at shutdown sees them all.
func keepTraces(cfg Config) Config {
	if cfg.RequestLogSize == 0 {
		cfg.RequestLogSize = 1 << 12
	}
	return cfg
}

// start starts s and, when the test ends, runs release, shuts s down and
// fails the test for every span a traced request left open (openSpans).
func start(t *testing.T, s *Server, release func()) *Server {
	t.Helper()
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release()
		// A connection the client dialed but never sent a request on would
		// hold the shutdown for net/http's 5 s grace of a new connection.
		http.DefaultClient.CloseIdleConnections()
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Logf("shutdown: %v; spans not checked", err)
			return
		}
		for _, msg := range openSpans(s.reqLog) {
			t.Error(msg)
		}
	})
	return s
}

// openSpans is the span check of the test servers. Read after shutdown,
// when every handler, the dispatcher and every worker have returned, it
// lists each span a traced request began and no goroutine ended, each
// request still in flight, and the records the log dropped unchecked.
func openSpans(l *requestLog) []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	var open []string
	if dropped := int(l.seq) - len(l.recent) - len(l.inflight); dropped > 0 {
		open = append(open, fmt.Sprintf("%d traced requests fell out of the request log (capacity %d) unchecked", dropped, l.capacity))
	}
	for _, rec := range l.inflight {
		open = append(open, fmt.Sprintf("trace %s: still in flight after shutdown", rec.spans.TraceID()))
	}
	for _, rec := range l.recent {
		for _, sp := range rec.spans.Tree().Spans {
			if sp.EndNS == 0 {
				open = append(open, fmt.Sprintf("trace %s (status %d): span %q never ended", rec.spans.TraceID(), rec.status, sp.Name))
			}
		}
	}
	return open
}

// TestOpenSpansCheck checks the span check itself: a span begun and never
// ended is reported, one handed to another goroutine and ended there is
// not, and a record that fell out of the log is counted.
func TestOpenSpansCheck(t *testing.T) {
	l := newRequestLog(2)
	traced := func(body func(root trace.SpanRef)) {
		spans := trace.NewSpanSet("")
		rec := l.start(spans, OpTransform, "f1d:4", time.Now())
		root := spans.Begin("request")
		body(root)
		root.End()
		l.finish(rec, http.StatusOK, time.Millisecond)
	}
	traced(func(root trace.SpanRef) {
		queue := root.Begin("queue")
		done := make(chan struct{})
		go func() {
			defer close(done)
			queue.End()
		}()
		<-done
	})
	if open := openSpans(l); len(open) != 0 {
		t.Errorf("a span ended by the goroutine it was handed to: reported %q", open)
	}
	traced(func(root trace.SpanRef) { root.Begin("admit") })
	if open := openSpans(l); len(open) != 1 || !strings.Contains(open[0], `span "admit" never ended`) {
		t.Errorf("a span never ended: reported %q, want the admit span", open)
	}
	traced(func(trace.SpanRef) {})
	if open := openSpans(l); len(open) != 2 || !strings.Contains(open[0], "1 traced requests fell out") {
		t.Errorf("a record dropped by a log of 2: reported %q", open)
	}
}

// plugWorker sends one request of a shape the test uses for nothing else and
// waits until it executes on a held server's only worker. The returned wait
// blocks until the request is answered.
func plugWorker(t *testing.T, s *Server) (wait func()) {
	t.Helper()
	inflight0 := mInflight.Value()
	done := make(chan struct{})
	go func() {
		defer close(done)
		if code, _, _ := postJSON(t, s.URL(), &Request{Dims: []int{8}, Data: randomData(1, 8)}); code != http.StatusOK {
			t.Errorf("plug request: status %d", code)
		}
	}()
	waitFor(t, "the plug request to hold the only worker", func() bool { return mInflight.Value()-inflight0 == 1 })
	return func() { <-done }
}

// postJSON posts a request and returns status, parsed body and headers.
func postJSON(t *testing.T, url string, req *Request) (int, *Response, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/fft", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, nil, resp.Header
	}
	var out Response
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatalf("status %d, unparseable body %q: %v", resp.StatusCode, raw, err)
	}
	return resp.StatusCode, &out, resp.Header
}

// randomData fills an interleaved re,im payload deterministically per seed.
func randomData(seed int64, elements int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	data := make([]float64, 2*elements)
	for i := range data {
		data[i] = rng.NormFloat64()
	}
	return data
}

// toComplex pairs interleaved re,im floats into complex values.
func toComplex(data []float64) []complex128 {
	x := make([]complex128, len(data)/2)
	for i := range x {
		x[i] = complex(data[2*i], data[2*i+1])
	}
	return x
}

// referenceTransform applies the plan directly to a copy of the payload.
func referenceTransform(dims []int, data []float64, sign fft.Sign, scale bool) []float64 {
	x := toComplex(data)
	n := 1
	for _, d := range dims {
		n *= d
	}
	var plan rowPlan
	switch len(dims) {
	case 1:
		plan = fft.NewPlan(dims[0])
	case 2:
		plan = fft.NewPlan2D(dims[0], dims[1])
	case 3:
		plan = fft.NewPlan3D(dims[0], dims[1], dims[2])
	}
	for r := 0; r < len(x)/n; r++ {
		plan.Transform(x[r*n:(r+1)*n], sign)
	}
	if scale {
		fft.Scale(x, 1/float64(n))
	}
	out := make([]float64, len(data))
	for i, v := range x {
		out[2*i] = real(v)
		out[2*i+1] = imag(v)
	}
	return out
}

func assertClose(t *testing.T, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("length %d, want %d", len(got), len(want))
	}
	for i := range got {
		if d := math.Abs(got[i] - want[i]); d > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("component %d: got %g, want %g", i, got[i], want[i])
		}
	}
}

func TestServeTransformJSON(t *testing.T) {
	s := startServer(t, Config{Workers: 2})
	for _, dims := range [][]int{{64}, {12, 10}, {8, 6, 4}} {
		n := 1
		for _, d := range dims {
			n *= d
		}
		req := &Request{Dims: dims, Batch: 2, Data: randomData(int64(n), 2*n)}
		code, resp, _ := postJSON(t, s.URL(), req)
		if code != http.StatusOK {
			t.Fatalf("dims %v: status %d", dims, code)
		}
		if resp.BatchSize < 2 {
			t.Errorf("dims %v: batch size %d < request batch 2", dims, resp.BatchSize)
		}
		assertClose(t, resp.Data, referenceTransform(dims, req.Data, fft.Forward, false))
	}
}

func TestServeScaledBackwardInverts(t *testing.T) {
	s := startServer(t, Config{})
	dims := []int{6, 5, 4}
	orig := randomData(7, 120)
	code, fwd, _ := postJSON(t, s.URL(), &Request{Dims: dims, Data: append([]float64(nil), orig...)})
	if code != http.StatusOK {
		t.Fatalf("forward: status %d", code)
	}
	code, back, _ := postJSON(t, s.URL(), &Request{Dims: dims, Sign: 1, Scale: true, Data: fwd.Data})
	if code != http.StatusOK {
		t.Fatalf("backward: status %d", code)
	}
	assertClose(t, back.Data, orig)
}

func TestServeTransformBinary(t *testing.T) {
	s := startServer(t, Config{})
	dims := []int{5, 4, 3}
	req := &Request{Dims: dims, Batch: 2, Data: randomData(3, 2*60)}
	wire, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(s.URL()+"/fft", "application/octet-stream", bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Errorf("binary request answered with Content-Type %q", ct)
	}
	dec, err := DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if dec.BatchSize < 2 {
		t.Errorf("batch size %d < request batch 2", dec.BatchSize)
	}
	assertClose(t, dec.Data, referenceTransform(dims, req.Data, fft.Forward, false))
}

func TestServeRejectsBadRequests(t *testing.T) {
	s := startServer(t, Config{MaxElements: 256})
	url := s.URL() + "/fft"

	if resp, err := http.Get(url); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET: status %d, want 405", resp.StatusCode)
		}
	}

	post := func(body string) int {
		resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
			t.Errorf("error reply without JSON error body (%v)", err)
		}
		return resp.StatusCode
	}
	cases := []string{
		`{`,
		`{"op":"transmogrify"}`,
		`{"dims":[4],"data":[1]}`,
		`{"dims":[4,4,4,4],"data":[]}`,
		`{"dims":[1024],"batch":2,"data":[]}`,
		`{"unknown_field":1}`,
		`{"dims":[4],"data":[1],"trace_id":"0123456789abcdef"}`, // traced: no span opens before decode
	}
	for _, body := range cases {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, code)
		}
	}
}

// postStatus posts body to the server's /fft endpoint and returns the reply
// status, requiring a JSON error body when a JSON request is refused.
func postStatus(t *testing.T, s *Server, contentType string, body []byte) int {
	t.Helper()
	resp, err := http.Post(s.URL()+"/fft", contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && contentType == "application/json" {
		var eb errorBody
		if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
			t.Errorf("error reply without JSON error body (%v)", err)
		}
	}
	return resp.StatusCode
}

// TestServePipeline checks that fftxd serves transforms only: a pipeline
// simulation body is a bad request, well-formed or not.
func TestServePipeline(t *testing.T) {
	s := startServer(t, Config{})
	for _, body := range []string{
		`{"op":"pipeline","pipeline":{"ecut":30,"alat":10,"nb":8,"ranks":2,"ntg":2}}`,
		`{"pipeline":{"ecut":30,"alat":10,"nb":8,"ranks":2,"ntg":2}}`,
		`{"op":"pipeline","pipeline":{"ecut":30,"alat":10,"nb":7,"ranks":2,"ntg":2}}`,
	} {
		if code := postStatus(t, s, "application/json", []byte(body)); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, code)
		}
	}
}

// TestServePipelineEngineSelection checks that no request picks an engine:
// a pipeline body naming one, and the FXP1 binary frame that carried one,
// are bad requests.
func TestServePipelineEngineSelection(t *testing.T) {
	s := startServer(t, Config{})
	for _, engine := range []string{"auto", "warp"} {
		body := `{"op":"pipeline","pipeline":{"ecut":30,"alat":10,"nb":8,"ranks":2,"ntg":2,"engine":"` + engine + `"}}`
		if code := postStatus(t, s, "application/json", []byte(body)); code != http.StatusBadRequest {
			t.Errorf("engine %q: status %d, want 400", engine, code)
		}
	}
	if code := postStatus(t, s, "application/octet-stream", pipelineFrame("")); code != http.StatusBadRequest {
		t.Errorf("FXP1 frame: status %d, want 400", code)
	}
}

func TestServeHealthz(t *testing.T) {
	s := startServer(t, Config{})
	resp, err := http.Get(s.URL() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body["status"] != "ok" {
		t.Errorf("status %v, want ok", body["status"])
	}
}

// TestServeOverloadBackpressure saturates a 1-worker, 1-slot queue and
// checks the overflow is rejected with 503 + Retry-After while the admitted
// requests still succeed.
func TestServeOverloadBackpressure(t *testing.T) {
	s, release := startHeld(t, Config{Workers: 1, QueueDepth: 1, MaxBatch: 1})
	full, full0, inflight0 := mRejects.With("full"), mRejects.With("full").Value(), mInflight.Value()

	const clients = 8
	dims := []int{16}
	var wg sync.WaitGroup
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, hdr := postJSON(t, s.URL(), &Request{Dims: dims, Data: randomData(int64(i), 16)})
			codes[i] = code
			retryAfter[i] = hdr.Get("Retry-After")
		}(i)
	}
	waitFor(t, "every client executing, waiting or refused", func() bool {
		return full.Value()-full0+float64(s.waiting.Load())+mInflight.Value()-inflight0 == clients
	})
	release()
	wg.Wait()

	ok, rejected := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			rejected++
			if retryAfter[i] == "" {
				t.Errorf("503 reply %d without Retry-After", i)
			}
		default:
			t.Errorf("client %d: unexpected status %d", i, code)
		}
	}
	if ok == 0 {
		t.Error("no request succeeded under overload")
	}
	if rejected == 0 {
		t.Error("no request was shed under overload")
	}
}

// TestServeBackpressureExact holds the only worker and offers more requests
// than the queue's depth: exactly QueueDepth are admitted — the dispatcher
// holds them in a pending group, and they count against the depth all the
// same — and every other one is refused with 503 + Retry-After.
func TestServeBackpressureExact(t *testing.T) {
	const depth, clients = 4, 10
	s, release := startHeld(t, Config{Workers: 1, QueueDepth: depth})
	plugged := plugWorker(t, s)
	full, full0 := mRejects.With("full"), mRejects.With("full").Value()

	var wg sync.WaitGroup
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, hdr := postJSON(t, s.URL(), &Request{Dims: []int{16}, Data: randomData(int64(i), 16), TraceID: trace.NewTraceID()})
			codes[i] = code
			retryAfter[i] = hdr.Get("Retry-After")
		}(i)
	}
	waitFor(t, "every client admitted or refused", func() bool {
		return s.waiting.Load()+int64(full.Value()-full0) == clients
	})
	if got := s.waiting.Load(); got != depth {
		t.Errorf("%d requests admitted behind the held worker, want exactly %d", got, depth)
	}
	var h Health
	getJSON(t, s.URL()+"/healthz", &h)
	if h.Queue != depth || h.QueueCap != depth {
		t.Errorf("healthz queue %d of %d, want %d of %d", h.Queue, h.QueueCap, depth, depth)
	}
	release()
	wg.Wait()
	plugged()

	ok, rejected := 0, 0
	for i, code := range codes {
		switch code {
		case http.StatusOK:
			ok++
		case http.StatusServiceUnavailable:
			rejected++
			if retryAfter[i] != "1" {
				t.Errorf("503 reply %d with Retry-After %q, want 1", i, retryAfter[i])
			}
		default:
			t.Errorf("client %d: unexpected status %d", i, code)
		}
	}
	if ok != depth || rejected != clients-depth {
		t.Errorf("%d served and %d refused, want %d and %d", ok, rejected, depth, clients-depth)
	}
}

// TestServeDeadlineExpiry checks a request whose queueing deadline cannot be
// met is rejected with 503 rather than served late.
func TestServeDeadlineExpiry(t *testing.T) {
	s, release := startHeld(t, Config{Workers: 1, MaxBatch: 1})
	plugged := plugWorker(t, s)

	type reply struct {
		code int
		hdr  http.Header
	}
	doomed := make(chan reply, 1)
	go func() {
		code, _, hdr := postJSON(t, s.URL(), &Request{
			Dims: []int{16}, Data: randomData(2, 16), DeadlineMillis: 10, TraceID: trace.NewTraceID(),
		})
		doomed <- reply{code, hdr}
	}()
	waitFor(t, "the deadline-doomed request to wait behind the held worker", func() bool { return s.waiting.Load() == 1 })
	admitted := time.Now() // the deadline runs from a moment before this
	waitFor(t, "the deadline to pass", func() bool { return time.Since(admitted) > 10*time.Millisecond })
	release()

	if r := <-doomed; r.code != http.StatusServiceUnavailable {
		t.Errorf("deadline-doomed request: status %d, want 503", r.code)
	} else if r.hdr.Get("Retry-After") == "" {
		t.Error("503 reply without Retry-After")
	}
	plugged()
}

// batchCounts reads the executed-batch counters of one shape key: batches,
// and the count and sum of their row histogram.
func batchCounts(key string) (batches float64, groups uint64, rows float64) {
	h := mBatchRows.With(key)
	return mBatches.With(key).Value(), h.Count(), h.Sum()
}

// TestServeBatchingCoalesces holds the only worker, admits eight same-shape
// requests behind it and releases it: the eight run as exactly one group of
// eight rows, and every client still gets the transform of its own payload —
// no cross-request aliasing.
func TestServeBatchingCoalesces(t *testing.T) {
	s, release := startHeld(t, Config{Workers: 1, MaxBatch: 16})
	plugged := plugWorker(t, s)
	const clients = 8
	dims := []int{4, 4, 4}
	key := (&Request{Dims: dims, Sign: -1}).ShapeKey()
	batches0, groups0, rows0 := batchCounts(key)

	var wg sync.WaitGroup
	batchSizes := make([]int, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			data := randomData(int64(100+i), 64)
			code, resp, _ := postJSON(t, s.URL(), &Request{Dims: dims, Data: data})
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", i, code)
				return
			}
			batchSizes[i] = resp.BatchSize
			assertClose(t, resp.Data, referenceTransform(dims, data, fft.Forward, false))
		}(i)
	}
	waitFor(t, "all eight admitted behind the held worker", func() bool { return s.waiting.Load() == clients })
	release()
	wg.Wait()
	plugged()

	batches, groups, rows := batchCounts(key)
	if batches-batches0 != 1 || groups-groups0 != 1 || rows-rows0 != clients {
		t.Errorf("fftxd_batches_total += %v, fftxd_batch_rows += %d groups of %v rows; want 1 group of %d",
			batches-batches0, groups-groups0, rows-rows0, clients)
	}
	for i, b := range batchSizes {
		if b != clients {
			t.Errorf("client %d: batch size %d, want %d", i, b, clients)
		}
	}
}

// queuedDispatcher admits one single-row task per shape in dims, in that
// order, and only then starts the dispatcher, so that every task is queued
// when it starts. No worker runs: the test takes the groups from s.batches
// itself, in the order they are offered, and runs them.
func queuedDispatcher(t *testing.T, cfg Config, dims ...[]int) (*Server, []*task) {
	t.Helper()
	s := New(cfg)
	tasks := make([]*task, len(dims))
	for i, d := range dims {
		req := &Request{Op: OpTransform, Dims: d, Sign: -1, Batch: 1}
		tasks[i] = newTask(req, req.ShapeKey(), make([]complex128, req.NumElements()))
		if serr := s.admit(tasks[i]); serr != nil {
			t.Fatalf("task %d: %v", i, serr)
		}
	}
	go s.dispatch()
	t.Cleanup(func() {
		s.admitMu.Lock()
		s.draining = true
		close(s.queue)
		s.admitMu.Unlock()
		<-s.dispatcherDone
	})
	return s, tasks
}

// takeGroups receives len(want) groups as a worker would, runs them, and
// checks that each holds the next tasks of want in order, nothing else.
func takeGroups(t *testing.T, s *Server, want ...[]*task) {
	t.Helper()
	for i, tasks := range want {
		g := <-s.batches
		if !slices.Equal(g.tasks, tasks) || g.rows != len(tasks) {
			t.Errorf("group %d: %d tasks (%d rows), want %d in admission order", i, len(g.tasks), g.rows, len(tasks))
		}
		s.runBatch(g)
	}
	select {
	case g := <-s.batches:
		t.Errorf("an extra group of %d rows", g.rows)
		s.runBatch(g)
	default:
	}
}

// TestDispatchSealsAtMaxBatch: 40 single-row requests of one shape, queued
// before a worker is free, with MaxBatch 16 — they leave as groups of 16, 16
// and 8, in admission order. A dispatcher that offered a group before taking
// every queued task would hand out a smaller first group.
func TestDispatchSealsAtMaxBatch(t *testing.T) {
	dims := make([][]int, 40)
	for i := range dims {
		dims[i] = []int{4}
	}
	s, tasks := queuedDispatcher(t, Config{Workers: 1, MaxBatch: 16}, dims...)
	takeGroups(t, s, tasks[:16], tasks[16:32], tasks[32:])
}

// TestDispatchInterleavedShapes: two shapes queued interleaved before a
// worker is free make one group each, the shape that arrived first first.
func TestDispatchInterleavedShapes(t *testing.T) {
	var dims [][]int
	for i := 0; i < 4; i++ {
		dims = append(dims, []int{6}, []int{3, 2})
	}
	s, tasks := queuedDispatcher(t, Config{Workers: 1, MaxBatch: 16}, dims...)
	var first, second []*task
	for i, tk := range tasks {
		if i%2 == 0 {
			first = append(first, tk)
		} else {
			second = append(second, tk)
		}
	}
	takeGroups(t, s, first, second)
}

// TestServeMetricsExposed checks the per-endpoint and per-shape fftxd_*
// families appear on a telemetry mux wired into the server.
func TestServeMetricsExposed(t *testing.T) {
	s := startServer(t, Config{})
	if code, _, _ := postJSON(t, s.URL(), &Request{Dims: []int{8, 8}, Data: randomData(1, 64)}); code != http.StatusOK {
		t.Fatalf("priming request: status %d", code)
	}
	snap := metrics.Default().Gather()
	for _, name := range []string{
		"fftxd_requests_total", "fftxd_request_seconds", "fftxd_shape_requests_total",
		"fftxd_batches_total", "fftxd_batch_rows", "fftxd_batch_exec_seconds",
		"fftxd_queue_depth", "fftxd_plan_builds", "fftxd_draining",
	} {
		if snap.Find(name) == nil {
			t.Errorf("metric family %s not registered", name)
		}
	}
	fam := snap.Find("fftxd_shape_requests_total")
	found := false
	for _, series := range fam.Series {
		for _, l := range series.Labels {
			if l.Value == "f2d:8x8" {
				found = true
			}
		}
	}
	if !found {
		t.Error("no f2d:8x8 shape series after a 2-D request")
	}
}

func contextWithTimeout(d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.Background(), d)
}
