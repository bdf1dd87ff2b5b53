package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/fft"
	"repro/internal/metrics"
)

// startServer boots a server on an ephemeral port and tears it down with the
// test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
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

func TestServePipeline(t *testing.T) {
	s := startServer(t, Config{})
	code, resp, _ := postJSON(t, s.URL(), &Request{
		Op:       OpPipeline,
		Pipeline: &PipelineRequest{Ecut: 30, Alat: 10, NB: 8, Ranks: 2, NTG: 2},
	})
	if code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	if resp.Runtime <= 0 {
		t.Errorf("simulated runtime %g, want > 0", resp.Runtime)
	}
	if resp.Engine != "task-iter" {
		t.Errorf("engine %q, want default task-iter", resp.Engine)
	}
}

// TestServePipelineEngineSelection drives engine choice end to end: an
// explicit per-request engine, the auto selector resolving to a concrete
// engine, a server-level default, and the binary FXP1/FXQ1 frames.
func TestServePipelineEngineSelection(t *testing.T) {
	concrete := map[string]bool{
		"original": true, "task-steps": true, "task-iter": true, "task-combined": true,
		"dataflow": true,
	}
	pipe := func(engine string) *Request {
		return &Request{
			Op:       OpPipeline,
			Pipeline: &PipelineRequest{Ecut: 30, Alat: 10, NB: 8, Ranks: 2, NTG: 2, Engine: engine},
		}
	}

	s := startServer(t, Config{})
	code, resp, _ := postJSON(t, s.URL(), pipe("original"))
	if code != http.StatusOK || resp.Engine != "original" {
		t.Errorf("explicit engine: status %d engine %q, want 200 original", code, resp.Engine)
	}
	code, resp, _ = postJSON(t, s.URL(), pipe("auto"))
	if code != http.StatusOK || !concrete[resp.Engine] {
		t.Errorf("auto: status %d engine %q, want 200 and a concrete engine", code, resp.Engine)
	}

	// The same request over the binary wire format: the FXQ1 response frame
	// carries the resolved engine too.
	wire, err := EncodeRequest(pipe("auto"))
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(s.URL()+"/fft", "application/octet-stream", bytes.NewReader(wire))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("binary auto: status %d: %s", httpResp.StatusCode, raw)
	}
	dec, err := DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !concrete[dec.Engine] || dec.Runtime <= 0 {
		t.Errorf("binary auto: engine %q runtime %g, want a concrete engine and runtime > 0", dec.Engine, dec.Runtime)
	}

	// A server-level default applies when the request names no engine.
	sd := startServer(t, Config{DefaultEngine: "original"})
	code, resp, _ = postJSON(t, sd.URL(), pipe(""))
	if code != http.StatusOK || resp.Engine != "original" {
		t.Errorf("server default: status %d engine %q, want 200 original", code, resp.Engine)
	}
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
		`{"op":"pipeline","pipeline":{"ecut":30,"alat":10,"nb":7,"ranks":2,"ntg":2}}`,
		`{"op":"pipeline","pipeline":{"ecut":30,"alat":10,"nb":8,"ranks":2,"ntg":2,"engine":"warp"}}`,
	}
	for _, body := range cases {
		if code := post(body); code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, code)
		}
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
	s := New(Config{Workers: 1, QueueDepth: 1, MaxBatch: 1})
	s.cfg.execDelay = 100 * time.Millisecond
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

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

// TestServeDeadlineExpiry checks a request whose queueing deadline cannot be
// met is rejected with 503 rather than served late.
func TestServeDeadlineExpiry(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1})
	s.cfg.execDelay = 150 * time.Millisecond
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		postJSON(t, s.URL(), &Request{Dims: []int{16}, Data: randomData(1, 16)})
	}()
	time.Sleep(30 * time.Millisecond) // first request is in flight on the only worker

	code, _, hdr := postJSON(t, s.URL(), &Request{
		Dims: []int{16}, Data: randomData(2, 16), DeadlineMillis: 10,
	})
	if code != http.StatusServiceUnavailable {
		t.Errorf("deadline-doomed request: status %d, want 503", code)
	} else if hdr.Get("Retry-After") == "" {
		t.Error("503 reply without Retry-After")
	}
	wg.Wait()
}

// TestServeBatchingCoalesces fires same-shape requests into one batch window
// and checks (a) at least some were coalesced and (b) every client still
// got the transform of its own payload — no cross-request aliasing.
func TestServeBatchingCoalesces(t *testing.T) {
	s := startServer(t, Config{Workers: 1, MaxBatch: 16, BatchWindow: 50 * time.Millisecond})
	const clients = 8
	dims := []int{4, 4, 4}
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
	wg.Wait()

	max := 0
	for _, b := range batchSizes {
		if b > max {
			max = b
		}
	}
	if max < 2 {
		t.Errorf("no coalescing observed: batch sizes %v", batchSizes)
	}
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
