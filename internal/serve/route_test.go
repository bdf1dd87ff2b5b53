package serve

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestPeekRouteJSON: the route peek must agree with the full decoder's
// ShapeKey on every request class without validating the payload, and find
// no route where the decoder would find no transform.
func TestPeekRouteJSON(t *testing.T) {
	cases := []struct {
		name    string
		body    string
		key     string // "" = unroutable
		traceID string
	}{
		{"3d forward", `{"op":"transform","dims":[16,16,16],"data":[1,2]}`, "f3d:16x16x16", ""},
		{"1d default op", `{"dims":[256],"data":[1,2]}`, "f1d:256", ""},
		{"backward scaled", `{"dims":[8,8],"sign":1,"scale":true,"data":[1,2]}`, "b2d:8x8:s", ""},
		{"traced", `{"dims":[32],"trace_id":"0123456789abcdef","data":[1,2]}`, "f1d:32", "0123456789abcdef"},
		// The request kind fftxd no longer serves carries no dims.
		{"pipeline", `{"op":"pipeline","pipeline":{"ecut":25,"alat":10.26,"nb":128,"ranks":4,"ntg":2}}`, "", ""},
		{"pipeline implicit op", `{"pipeline":{"ecut":12.5,"nb":64,"ranks":2,"ntg":1}}`, "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key, traceID, err := PeekRoute([]byte(tc.body), false)
			if tc.key == "" {
				if err == nil {
					t.Fatalf("PeekRoute = %q, want unroutable", key)
				}
				return
			}
			if err != nil {
				t.Fatalf("PeekRoute: %v", err)
			}
			if key != tc.key || traceID != tc.traceID {
				t.Errorf("PeekRoute = (%q, %q), want (%q, %q)", key, traceID, tc.key, tc.traceID)
			}
		})
	}

	for _, bad := range []string{`{`, `{"op":"transform"}`, `{"dims":[1,2,3,4],"data":[1,2]}`} {
		if key, _, err := PeekRoute([]byte(bad), false); err == nil {
			t.Errorf("PeekRoute(%q) = %q, want error", bad, key)
		}
	}
}

// TestPeekRouteBinaryMatchesJSON: both wire formats of the same request
// must produce the same route key, or a cluster would shard a client's
// JSON and binary traffic differently.
func TestPeekRouteBinaryMatchesJSON(t *testing.T) {
	reqs := []*Request{
		{Op: OpTransform, Dims: []int{16, 16, 16}, Batch: 2, Data: make([]float64, 2*2*4096)},
		{Op: OpTransform, Dims: []int{64}, Sign: 1, Scale: true, Data: make([]float64, 128)},
		{Op: OpTransform, Dims: []int{8, 8}, TraceID: "00112233445566aa", Data: make([]float64, 128)},
	}
	for _, r := range reqs {
		jsonBody, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		binBody, err := EncodeRequest(r)
		if err != nil {
			t.Fatal(err)
		}
		jKey, jTrace, err := PeekRoute(jsonBody, false)
		if err != nil {
			t.Fatalf("JSON peek: %v", err)
		}
		bKey, bTrace, err := PeekRoute(binBody, true)
		if err != nil {
			t.Fatalf("binary peek: %v", err)
		}
		if jKey != bKey || jTrace != bTrace {
			t.Errorf("formats disagree: JSON (%q, %q) vs binary (%q, %q)", jKey, jTrace, bKey, bTrace)
		}
	}

	if _, _, err := PeekRoute([]byte("FXD?this is not a frame"), true); err == nil {
		t.Error("malformed binary frame peeked without error")
	}
}

// TestHealthzBody: /healthz carries the machine-readable worker state the
// cluster prober consumes — and keeps the 200/503 status contract.
func TestHealthzBody(t *testing.T) {
	s := New(Config{Addr: "127.0.0.1:0", Workers: 2, TraceSample: 0})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	get := func() (int, Health) {
		resp, err := http.Get(s.URL() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		var h Health
		if err := json.Unmarshal(raw, &h); err != nil {
			t.Fatalf("healthz body %q: %v", raw, err)
		}
		return resp.StatusCode, h
	}

	code, h := get()
	if code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("fresh server healthz = %d %q, want 200 ok", code, h.Status)
	}
	if h.Workers != 2 || h.QueueCap == 0 {
		t.Errorf("healthz = %+v, want workers and queue capacity reported", h)
	}
	if len(h.Shapes) != 0 {
		t.Errorf("fresh server already claims shapes %v", h.Shapes)
	}

	// Serving a transform records its shape.
	body, _ := json.Marshal(&Request{Dims: []int{8, 8}, Data: make([]float64, 128)})
	resp, err := http.Post(s.URL()+"/fft", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if _, h = get(); len(h.Shapes) != 1 || h.Shapes[0] != "f2d:8x8" {
		t.Errorf("shapes = %v after serving f2d:8x8", h.Shapes)
	}

	// Draining flips the body and the status code together.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The listener is closed after drain; exercise the handler directly.
	hh, hcode := s.health()
	if hcode != http.StatusServiceUnavailable || hh.Status != "draining" {
		t.Errorf("drained health = %d %q, want 503 draining", hcode, hh.Status)
	}
}
