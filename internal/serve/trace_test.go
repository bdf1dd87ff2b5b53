package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// getJSON fetches a debug endpoint into out.
func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d, body %q", url, resp.StatusCode, raw)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatalf("GET %s: unparseable body %q: %v", url, raw, err)
	}
}

// TestServeTracingEndToEnd drives a traced server through both codecs and
// checks the acceptance contract: every sampled request yields a structurally
// valid span tree whose root duration agrees with the reported request
// latency, trace IDs round-trip through the JSON and binary wire formats,
// and the request histogram carries trace-linked exemplars.
func TestServeTracingEndToEnd(t *testing.T) {
	s := startServer(t, Config{TraceSample: 1})

	// JSON transforms with client-supplied trace IDs.
	clientIDs := map[string]bool{}
	for i := 0; i < 8; i++ {
		req := &Request{
			Dims:    []int{8, 8},
			Batch:   1,
			Data:    randomData(int64(i), 64),
			TraceID: trace.NewTraceID(),
		}
		code, resp, hdr := postJSON(t, s.URL(), req)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if resp.TraceID != req.TraceID {
			t.Fatalf("JSON trace ID not echoed: sent %q, got %q", req.TraceID, resp.TraceID)
		}
		if hdr.Get("Fftx-Trace-Id") != req.TraceID {
			t.Fatalf("Fftx-Trace-Id header %q, want %q", hdr.Get("Fftx-Trace-Id"), req.TraceID)
		}
		clientIDs[req.TraceID] = true
	}

	// A server-sampled JSON request (no client ID; TraceSample=1 traces it).
	code, resp, hdr := postJSON(t, s.URL(), &Request{Dims: []int{16}, Batch: 1, Data: randomData(99, 16)})
	if code != http.StatusOK {
		t.Fatalf("sampled request: status %d", code)
	}
	if !trace.ValidTraceID(resp.TraceID) || hdr.Get("Fftx-Trace-Id") != resp.TraceID {
		t.Fatalf("sampled request got no server-assigned trace ID: body %q header %q",
			resp.TraceID, hdr.Get("Fftx-Trace-Id"))
	}

	// Binary transform: the ID travels inside the FXD1/FXR1 frames.
	binReq := &Request{Dims: []int{4, 4}, Batch: 2, TraceID: trace.NewTraceID(), Data: randomData(7, 32)}
	frame, err := EncodeRequest(binReq)
	if err != nil {
		t.Fatal(err)
	}
	httpResp, err := http.Post(s.URL()+"/fft", "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	if err != nil || httpResp.StatusCode != http.StatusOK {
		t.Fatalf("binary request: status %d err %v", httpResp.StatusCode, err)
	}
	binResp, err := DecodeResponse(raw)
	if err != nil {
		t.Fatal(err)
	}
	if binResp.TraceID != binReq.TraceID {
		t.Fatalf("FXR1 trace ID %q, want %q", binResp.TraceID, binReq.TraceID)
	}
	if httpResp.Header.Get("Fftx-Trace-Id") != binReq.TraceID {
		t.Fatalf("binary response header trace ID %q", httpResp.Header.Get("Fftx-Trace-Id"))
	}
	clientIDs[binReq.TraceID] = true

	// Every traced request must appear at /debug/fftx/requests with a
	// structurally valid span tree whose root duration matches the reported
	// latency within tolerance.
	var dump RequestDump
	getJSON(t, s.URL()+"/debug/fftx/requests", &dump)
	if len(dump.Recent) == 0 {
		t.Fatal("no recent traced requests")
	}
	seen := map[string]bool{}
	for _, rv := range dump.Recent {
		seen[rv.TraceID] = true
		if rv.Spans == nil {
			t.Fatalf("request %d has no span tree", rv.Seq)
		}
		for _, err := range rv.Spans.ValidateSpans() {
			t.Errorf("trace %s: %v", rv.TraceID, err)
		}
		root := rv.Spans.Root()
		if root.Name != "request" {
			t.Errorf("trace %s: root span %q, want \"request\"", rv.TraceID, root.Name)
		}
		diff := rv.LatencySec - root.DurationSec()
		if diff < -1e-3 || diff > 0.1 {
			t.Errorf("trace %s: root span %.6fs vs reported latency %.6fs",
				rv.TraceID, root.DurationSec(), rv.LatencySec)
		}
		if rv.Status == http.StatusOK {
			for _, name := range []string{"decode", "queue", "coalesce", "exec", "encode"} {
				if _, ok := rv.Spans.Find(name); !ok {
					t.Errorf("trace %s: no %q span", rv.TraceID, name)
				}
			}
		}
	}
	for id := range clientIDs {
		if !seen[id] {
			t.Errorf("client trace %s missing from /debug/fftx/requests", id)
		}
	}

	// The request histogram carries a trace-linked exemplar.
	var buf bytes.Buffer
	if err := metrics.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `# {trace_id="`) {
		t.Error("no exemplar on fftxd_request_seconds buckets")
	}
}

// TestServeTraceValidation pins the JSON-side trace_id contract: malformed
// IDs are rejected with 400, and a duplicated trace_id field follows
// encoding/json semantics (last value wins) rather than erroring.
func TestServeTraceValidation(t *testing.T) {
	s := startServer(t, Config{})

	code, _, _ := postJSON(t, s.URL(), &Request{
		Dims: []int{4}, Batch: 1, Data: randomData(1, 4), TraceID: "not-a-trace-id!!",
	})
	if code != http.StatusBadRequest {
		t.Fatalf("malformed trace_id: status %d, want 400", code)
	}

	last := trace.NewTraceID()
	body := []byte(`{"dims":[4],"batch":1,"trace_id":"aaaaaaaaaaaaaaaa",` +
		`"data":[1,0,2,0,3,0,4,0],"trace_id":"` + last + `"}`)
	resp, err := http.Post(s.URL()+"/fft", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate trace_id fields: status %d, body %q", resp.StatusCode, raw)
	}
	var out Response
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.TraceID != last {
		t.Fatalf("duplicate trace_id echoed %q, want the last value %q", out.TraceID, last)
	}
}

// TestTracingOverheadSmoke is tracing's cost in counts, the check behind
// `make overhead-smoke`: the rows of TestHandleFFTAllocs served by a server
// that traces every request. Each round trip adds exactly one to
// fftxd_traced_requests_total and leaves one valid span tree with the fixed
// phases, for a pinned number of extra objects. Tracing's timing is
// bench.tracing_overhead_pct.
func TestTracingOverheadSmoke(t *testing.T) {
	s := startServer(t, Config{TraceSample: 1})
	jsonBody, binaryBody := box16(t)
	trips := pinHandleFFT(t, s, true, []handleFFTCase{
		{"JSON traced", "application/json", jsonBody, 32},
		{"binary traced", "application/octet-stream", binaryBody, 24},
	})

	// Every traced round trip the ring still holds is a finished 200 with a
	// valid tree of exactly the fixed phases, in the order they begin; the
	// server's span check at shutdown requires each of them ended.
	phases := []string{"request", "decode", "read", "parse", "admit", "queue",
		"coalesce", "exec", "plan", "transform", "encode", "render", "write"}
	recent := s.reqLog.dump().Recent
	if len(recent) != min(trips, s.cfg.RequestLogSize) {
		t.Fatalf("%d recent traced requests after %d traced round trips, ring of %d",
			len(recent), trips, s.cfg.RequestLogSize)
	}
	for _, rv := range recent {
		if rv.Status != http.StatusOK || rv.InFlight {
			t.Errorf("trace %s: status %d, in flight %v", rv.TraceID, rv.Status, rv.InFlight)
		}
		for _, err := range rv.Spans.ValidateSpans() {
			t.Errorf("trace %s: %v", rv.TraceID, err)
		}
		names := make([]string, len(rv.Spans.Spans))
		for i, sp := range rv.Spans.Spans {
			names[i] = sp.Name
		}
		if !reflect.DeepEqual(names, phases) {
			t.Errorf("trace %s: spans %v, want %v", rv.TraceID, names, phases)
		}
	}
}
