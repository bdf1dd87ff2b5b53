package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptrace"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fft"
	"repro/internal/serve"
	"repro/internal/trace"
)

// class is one request shape of a serving workload.
type class struct {
	dims  []int
	batch int
}

func (c class) elems() int {
	n := c.batch
	for _, d := range c.dims {
		n *= d
	}
	return n
}

// serveSpec describes a serving workload: wire format, request classes
// (sent round-robin, equal shares), discipline and latency limit.
type serveSpec struct {
	name    string
	binary  bool
	classes []class
	// rate > 0 is an open loop at that many requests per second; 0 is a
	// closed loop with one request in flight per client.
	rate    float64
	limitMS float64
}

var (
	// serveJSON is the shape of BENCH_serve.json and of ROADMAP item 2's
	// JSON gate: encoding/json does most of the work, the kernel almost none.
	serveJSON = serveSpec{name: "serve_json", limitMS: limitServeJSON,
		classes: []class{{[]int{16, 16, 16}, 1}}}
	// serveBinaryOpen has three classes, an odd number, so that p50 and p90
	// fall inside a class and not on the gap between two: a 2 MiB box batch,
	// a mixed-radix (2²·3·5) plane batch and a Bluestein stick batch.
	serveBinaryOpen = serveSpec{name: "serve_binary_open", binary: true, rate: openLoopRate, limitMS: limitServeBinaryOpen,
		classes: []class{{[]int{32, 32, 32}, 4}, {[]int{60, 60}, 16}, {[]int{1009}, 16}}}
)

const (
	// openLoopRate is the fixed arrival rate of serve_binary_open, chosen
	// well under this box's capacity for the mix so that the schedule, not
	// the server, sets the throughput.
	openLoopRate = 50
	// payloadsPerClass distinct bodies rotate per class, so no two
	// consecutive requests of a class carry the same data.
	payloadsPerClass = 4
	// verifyEvery: one response in this many is decoded in full and
	// compared with the harness's own transform; the others are checked by
	// status and length, which keeps the generator's CPU well under the
	// server's.
	verifyEvery = 16
	// tolerance is the relative error allowed against the reference.
	tolerance = 1e-9
)

// payload is one pre-encoded request and the response data it must produce.
type payload struct {
	body []byte
	want []float64 // interleaved re,im of the forward transform
}

// randomData draws n complex values in [-1,1)² from rng.
func randomData(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(2*rng.Float64()-1, 2*rng.Float64()-1)
	}
	return x
}

func interleave(x []complex128) []float64 {
	out := make([]float64, 2*len(x))
	for i, v := range x {
		out[2*i], out[2*i+1] = real(v), imag(v)
	}
	return out
}

// transformer applies the forward transform of the given dims to one item
// through the plain per-item Transform entry points — not the batch drivers
// the server uses.
func transformer(dims []int) func(x []complex128) {
	switch len(dims) {
	case 1:
		p := fft.NewPlan(dims[0])
		return func(x []complex128) { p.Transform(x, fft.Forward) }
	case 2:
		p := fft.NewPlan2D(dims[0], dims[1])
		return func(x []complex128) { p.Transform(x, fft.Forward) }
	default:
		p := fft.NewPlan3D(dims[0], dims[1], dims[2])
		return func(x []complex128) { p.Transform(x, fft.Forward) }
	}
}

// newPayload builds one request of the class from rng and computes the
// response the server must send for it.
func newPayload(rng *rand.Rand, c class, binary bool, forward func([]complex128)) (payload, error) {
	data := randomData(rng, c.elems())
	req := &serve.Request{Op: serve.OpTransform, Dims: c.dims, Sign: -1, Batch: c.batch, Data: interleave(data)}
	var body []byte
	var err error
	if binary {
		body, err = serve.EncodeRequest(req)
	} else {
		body, err = json.Marshal(req)
	}
	if err != nil {
		return payload{}, err
	}
	n := c.elems() / c.batch
	for b := 0; b < c.batch; b++ {
		forward(data[b*n : (b+1)*n])
	}
	return payload{body: body, want: interleave(data)}, nil
}

// closeTo reports whether got matches want within the relative tolerance,
// measured against the largest magnitude in want.
func closeTo(got, want []float64) bool {
	if len(got) != len(want) {
		return false
	}
	scale := 1.0
	for _, v := range want {
		scale = math.Max(scale, math.Abs(v))
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= tolerance*scale) {
			return false
		}
	}
	return true
}

// checkResponse verifies one reply against its payload: status and length
// always, every value when full is set.
func checkResponse(p *payload, binary bool, status int, body []byte, full bool) bool {
	if status != http.StatusOK {
		return false
	}
	if binary {
		// FXR1 header, 8 bytes a value, and the trace ID a traced server adds.
		if n := len(body) - 8 - 8*len(p.want); n != 0 && n != trace.TraceIDLen {
			return false
		}
	} else if !bytes.HasPrefix(body, []byte(`{"data":[`)) || !bytes.HasSuffix(bytes.TrimSpace(body), []byte("}")) || len(body) < 2*len(p.want) {
		// A whole JSON object with at least a digit and a comma per value.
		return false
	}
	if !full {
		return true
	}
	var resp *serve.Response
	if binary {
		r, err := serve.DecodeResponse(body)
		if err != nil {
			return false
		}
		resp = r
	} else {
		resp = new(serve.Response)
		if err := json.Unmarshal(body, resp); err != nil {
			return false
		}
	}
	return closeTo(resp.Data, p.want)
}

// client is one keep-alive connection and its reusable read buffer.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 1, DisableCompression: true}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is a response and, on traced runs, when the request had been
// written and when the first response byte arrived.
type reply struct {
	status           int
	body             []byte
	traceID          string
	worker           string // Fftx-Worker: which worker a router relayed to
	wrote, firstByte time.Time
	done             time.Time
}

func (c *client) post(url, ctype string, body []byte, timed bool) (reply, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return reply{}, err
	}
	req.Header.Set("Content-Type", ctype)
	var wrote, first atomic.Int64 // set on net/http's own goroutines
	if timed {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			WroteRequest:         func(httptrace.WroteRequestInfo) { wrote.Store(time.Now().UnixNano()) },
			GotFirstResponseByte: func() { first.Store(time.Now().UnixNano()) },
		}))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r := reply{status: resp.StatusCode, body: c.buf.Bytes(), traceID: resp.Header.Get("Fftx-Trace-Id"), worker: resp.Header.Get("Fftx-Worker"),
		wrote: time.Unix(0, wrote.Load()), firstByte: time.Unix(0, first.Load()), done: time.Now()}
	return r, err
}

// serveWorkload drives one fftxd process, started by setup and stopped by
// teardown, with pre-encoded requests.
type serveWorkload struct {
	spec   serveSpec
	seed   int64
	env    env
	traced bool // server with -trace-sample 1

	payloads [][]payload // [class][payloadsPerClass]
	srv      *server
	clients  []*client
}

func (w *serveWorkload) contentType() string {
	if w.spec.binary {
		return "application/octet-stream"
	}
	return "application/json"
}

// setup generates the requests and their references from the seed, starts
// the server and sends the fixed warm-up, which also builds the plans.
func (w *serveWorkload) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.payloads = w.payloads[:0]
	for _, c := range w.spec.classes {
		forward := transformer(c.dims)
		var ps []payload
		for k := 0; k < payloadsPerClass; k++ {
			p, err := newPayload(rng, c, w.spec.binary, forward)
			if err != nil {
				return err
			}
			ps = append(ps, p)
		}
		w.payloads = append(w.payloads, ps)
	}
	sample := "0"
	if w.traced {
		sample = "1"
	}
	srv, err := startServer(w.env.fftxd, "-trace-sample", sample)
	if err != nil {
		return err
	}
	w.srv = srv
	w.clients = w.clients[:0]
	for i := 0; i < runtime.NumCPU(); i++ {
		w.clients = append(w.clients, newClient())
	}
	var next atomic.Int64
	var bad atomic.Int64
	var wg sync.WaitGroup
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(w.env.warmRequests) {
					return
				}
				if _, _, ok := w.one(c, i, nil); !ok {
					bad.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()
	if n := bad.Load(); n > 0 {
		return fmt.Errorf("%s: %d of %d warm-up requests failed", w.spec.name, n, w.env.warmRequests)
	}
	return nil
}

func (w *serveWorkload) teardown() {
	for _, c := range w.clients {
		c.close()
	}
	if w.srv != nil {
		_ = w.srv.stop()
		w.srv = nil
	}
}

// one sends request number i and checks the reply. It returns when the
// request was handed to the HTTP client, when the reply had been read, and
// whether it was correct.
func (w *serveWorkload) one(c *client, i int64, tr *tracer) (sent, end time.Time, ok bool) {
	begin := time.Now()
	nc := int64(len(w.payloads))
	p := &w.payloads[i%nc][(i/nc)%payloadsPerClass]
	sent = time.Now()
	r, err := c.post(w.srv.url+"/fft", w.contentType(), p.body, tr != nil)
	if err != nil {
		return sent, time.Now(), false
	}
	ok = checkResponse(p, w.spec.binary, r.status, r.body, i%verifyEvery == 0)
	if tr != nil {
		verified := time.Now()
		op := int(i)
		id := tr.reserve("op", op, begin)
		tr.add("build", id, op, begin, sent)
		tr.add("send", id, op, sent, r.wrote)
		tr.add("wait", id, op, r.wrote, r.firstByte)
		tr.add("read", id, op, r.firstByte, r.done)
		tr.add("verify", id, op, r.done, verified)
		tr.finish(id, verified, r.traceID)
	}
	return sent, r.done, ok
}

// run measures for d. Closed loop: every client keeps one request in
// flight. Open loop: request i is due at t0 + i/rate; the clients take the
// due requests in order, so at most len(clients) are in flight, and one that
// finds every connection busy waits and is timed from when it was due.
func (w *serveWorkload) run(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{limitMS: w.spec.limitMS}
	before, err := w.srv.scrape()
	if err != nil {
		return nil, err
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	cpu0 := selfCPUSeconds()
	t0 := time.Now()
	for _, c := range w.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			prevEnd := t0
			for {
				i := next.Add(1) - 1
				due := prevEnd
				if w.spec.rate > 0 {
					due = t0.Add(time.Duration(float64(i) / w.spec.rate * float64(time.Second)))
					time.Sleep(time.Until(due))
				}
				if due.Sub(t0) >= d || time.Since(t0) >= d {
					return
				}
				sent, end, ok := w.one(c, i, tr)
				start := sent
				if w.spec.rate > 0 {
					start = due
				}
				m.record(sample{start: start, end: end, ok: ok}, sent.Sub(due))
				prevEnd = end
			}
		}(c)
	}
	err = sampleWindows(t0, d, windows, func() error {
		mem, err := w.srv.memstats()
		m.edge(w.srv.cpuSeconds(), mem)
		return err
	})
	wg.Wait()
	if err != nil {
		return nil, err
	}
	m.clientCPU = selfCPUSeconds() - cpu0
	if tr != nil {
		if m.serve, err = w.readServerSide(before); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// serverSide is what a traced serving phase reads from the server's own
// endpoints once the load has stopped.
type serverSide struct {
	// spanMS is the median duration of each phase span (children of the
	// request span) over the last traced requests.
	spanMS                    map[string]float64
	batchRowsMean, execMSMean float64
	planBuilds, rejects       float64
	httpFloorUS               float64
	peakRSSMB                 float64
}

// phaseSpans are the server's request phases, in pipeline order.
var phaseSpans = []string{"decode", "queue", "coalesce", "exec", "encode"}

func (w *serveWorkload) readServerSide(before map[string]float64) (*serverSide, error) {
	after, err := w.srv.scrape()
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	side := &serverSide{
		spanMS:        map[string]float64{},
		batchRowsMean: delta("fftxd_batch_rows_sum") / delta("fftxd_batch_rows_count"),
		execMSMean:    1e3 * delta("fftxd_batch_exec_seconds_sum") / delta("fftxd_batch_exec_seconds_count"),
		planBuilds:    after["fftxd_plan_builds"],
		rejects:       delta("fftxd_rejects_total"),
		peakRSSMB:     peakRSSMB(w.srv.cmd.Process.Pid),
	}
	body, err := httpGet(w.srv.url + "/debug/fftx/requests")
	if err != nil {
		return nil, err
	}
	var dump serve.RequestDump
	if err := json.Unmarshal(body, &dump); err != nil {
		return nil, fmt.Errorf("/debug/fftx/requests: %w", err)
	}
	durations := map[string][]float64{}
	for _, rv := range dump.Recent {
		if rv.Spans == nil {
			continue
		}
		root := rv.Spans.Root()
		for _, s := range rv.Spans.Spans {
			if s.Parent == root.ID {
				durations[s.Name] = append(durations[s.Name], s.DurationSec()*1e3)
			}
		}
	}
	for _, name := range phaseSpans {
		side.spanMS[name] = median(durations[name])
	}
	// What HTTP and loopback cost with no FFT behind them.
	c := w.clients[0]
	floor := make([]float64, 200)
	for i := range floor {
		t := time.Now()
		resp, err := c.hc.Get(w.srv.url + "/healthz")
		if err != nil {
			return nil, err
		}
		c.buf.Reset()
		_, _ = c.buf.ReadFrom(resp.Body)
		resp.Body.Close()
		floor[i] = float64(time.Since(t)) / 1e3
	}
	side.httpFloorUS = median(floor)
	return side, nil
}

// codecProbe times direct calls into the serve codecs on one 16×16×16
// payload in both wire formats, generated from the seed.
func codecProbe(seed int64, out map[string]metric) error {
	rng := rand.New(rand.NewSource(seed))
	c := class{[]int{16, 16, 16}, 1}
	forward := transformer(c.dims)
	js, err := newPayload(rng, c, false, forward)
	if err != nil {
		return err
	}
	rng = rand.New(rand.NewSource(seed))
	bin, err := newPayload(rng, c, true, forward)
	if err != nil {
		return err
	}
	resp := &serve.Response{Data: bin.want, BatchSize: 1}
	var failed error
	timeUS := func(reps int, fn func() error) float64 {
		ts := make([]float64, reps)
		for i := range ts {
			t := time.Now()
			if err := fn(); err != nil {
				failed = err
			}
			ts[i] = float64(time.Since(t)) / 1e3
		}
		return median(ts)
	}
	out["serve.json_decode_us"] = metric{timeUS(60, func() error {
		_, err := serve.DecodeJSONRequest(js.body, serve.DefaultMaxElements)
		return err
	}), "us"}
	out["serve.binary_decode_us"] = metric{timeUS(600, func() error {
		_, err := serve.DecodeRequest(bin.body, serve.DefaultMaxElements)
		return err
	}), "us"}
	out["serve.binary_encode_us"] = metric{timeUS(600, func() error {
		if len(serve.EncodeResponse(resp)) == 0 {
			return fmt.Errorf("EncodeResponse returned nothing")
		}
		return nil
	}), "us"}
	out["serve.peek_route_us"] = metric{timeUS(2000, func() error {
		_, _, err := serve.PeekRoute(bin.body, true)
		return err
	}), "us"}
	return failed
}

// serveLayer reports the serve-layer metrics a traced serving phase gives:
// the server's own phase spans, its batch and plan counters, the HTTP floor
// and the share of the client's median latency that none of them explains.
func serveLayer(m *measurement, out map[string]metric) {
	side := m.serve
	sum := 0.0
	for _, name := range phaseSpans {
		out["serve.span_"+name+"_ms"] = metric{side.spanMS[name], "ms"}
		sum += side.spanMS[name]
	}
	p50 := median(m.okLatencies())
	out["serve.unattributed_pct"] = metric{100 * (p50 - side.httpFloorUS/1e3 - sum) / p50, "%"}
	out["serve.http_floor_us"] = metric{side.httpFloorUS, "us"}
	out["serve.batch_rows_mean"] = metric{side.batchRowsMean, "count"}
	out["serve.exec_ms_mean"] = metric{side.execMSMean, "ms"}
	out["serve.plan_builds"] = metric{side.planBuilds, "count"}
	out["serve.rejects"] = metric{side.rejects, "count"}
}
