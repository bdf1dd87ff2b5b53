package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/fft"
	"repro/internal/trace"
)

// rawExchange writes raw bytes to the server — optionally half-closing the
// connection after them, as a client does that gives up mid-body — and
// returns the status of whatever comes back.
func rawExchange(t *testing.T, addr, request string, closeWrite bool) int {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(conn, request); err != nil {
		t.Fatal(err)
	}
	if closeWrite {
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatalf("no response: %v", err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
		t.Errorf("status %d without a JSON error body (%v)", resp.StatusCode, err)
	}
	return resp.StatusCode
}

// TestBodyReadFailureStatus: only a body over the cap is 413 — refused
// before a byte of it is read when its length is declared, cut off at the cap
// when it is chunked; a body that ends before its declared length is the
// client's malformed request, 400.
func TestBodyReadFailureStatus(t *testing.T) {
	s := startServer(t, Config{MaxElements: 256})
	limit := s.maxBody()
	const head = "POST /fft HTTP/1.1\r\nHost: fftxd\r\nContent-Type: application/json\r\n"

	var chunked strings.Builder
	chunked.WriteString(head + "Transfer-Encoding: chunked\r\n\r\n")
	chunk := strings.Repeat("0", 4096)
	for sent := int64(0); sent <= limit; sent += int64(len(chunk)) {
		fmt.Fprintf(&chunked, "%x\r\n%s\r\n", len(chunk), chunk)
	}
	chunked.WriteString("0\r\n\r\n")

	for _, tc := range []struct {
		name       string
		request    string
		closeWrite bool
		want       int
	}{
		// No body follows: the refusal cannot have waited for one.
		{"declared length over the cap", fmt.Sprintf("%sContent-Length: %d\r\n\r\n", head, limit+1), false,
			http.StatusRequestEntityTooLarge},
		{"chunked body over the cap", chunked.String(), false, http.StatusRequestEntityTooLarge},
		{"body shorter than declared", head + "Content-Length: 100\r\n\r\n" + `{"dims":[4]`, true,
			http.StatusBadRequest},
		{"declared length at the cap, malformed body", fmt.Sprintf("%sContent-Length: %d\r\n\r\n%s", head, limit,
			strings.Repeat(" ", int(limit))), false, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := rawExchange(t, s.Addr(), tc.request, tc.closeWrite); got != tc.want {
				t.Errorf("status %d, want %d", got, tc.want)
			}
		})
	}

	// A chunked body under the cap is read whole, growing through the pool.
	data := randomData(3, 128)
	body, _ := json.Marshal(&Request{Dims: []int{128}, Data: data})
	req, _ := http.NewRequest(http.MethodPost, s.URL()+"/fft", struct{ io.Reader }{bytes.NewReader(body)})
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("chunked request: status %d, %v", resp.StatusCode, err)
	}
	assertClose(t, out.Data, referenceTransform([]int{128}, data, fft.Forward, false))
}

// stallingBody yields its bytes, then reports that the client has stalled
// and blocks until the test lets the connection fail.
type stallingBody struct {
	sent    io.Reader
	stalled chan struct{}
	fail    chan struct{}
}

func (b *stallingBody) Read(p []byte) (int, error) {
	if n, _ := b.sent.Read(p); n > 0 {
		return n, nil
	}
	close(b.stalled)
	<-b.fail
	return 0, io.ErrUnexpectedEOF
}

func (b *stallingBody) Close() error { return nil }

// TestStalledBodyHoldsNoDeclaredLength: a declared Content-Length is a hint
// for the first buffer, not a reservation. A client that declares 32 MiB,
// sends a hundred bytes and stalls must pin bodyFirstRead at most, and its
// failure is a 400.
func TestStalledBodyHoldsNoDeclaredLength(t *testing.T) {
	s := New(Config{})
	const declared = 32 << 20
	if declared > s.maxBody() {
		t.Fatalf("declared length %d is over the default cap %d", declared, s.maxBody())
	}
	body := &stallingBody{sent: strings.NewReader(strings.Repeat(" ", 100)),
		stalled: make(chan struct{}), fail: make(chan struct{})}
	r := httptest.NewRequest(http.MethodPost, "/fft", nil)
	r.Body, r.ContentLength = body, declared

	var before, during runtime.MemStats
	runtime.ReadMemStats(&before)
	done := make(chan *statusError, 1)
	go func() {
		_, serr := s.readBody(httptest.NewRecorder(), r)
		done <- serr
	}()
	<-body.stalled
	runtime.ReadMemStats(&during)
	if held := during.TotalAlloc - before.TotalAlloc; held > 2*bodyFirstRead {
		t.Errorf("%d bytes allocated for a stalled body of 100, want at most %d", held, 2*bodyFirstRead)
	}
	close(body.fail)
	if serr := <-done; serr == nil || serr.code != http.StatusBadRequest {
		t.Errorf("stalled body ended in %v, want a 400", serr)
	}
}

// TestBodyLongerThanFirstRead: a declared body over bodyFirstRead arrives
// whole through the growing buffer.
func TestBodyLongerThanFirstRead(t *testing.T) {
	s := New(Config{})
	want := bytes.Repeat([]byte("0123456789abcdef"), (2*bodyFirstRead+4096)/16)
	r := httptest.NewRequest(http.MethodPost, "/fft", nil)
	r.Body, r.ContentLength = io.NopCloser(iotest.HalfReader(bytes.NewReader(want))), int64(len(want))
	got, serr := s.readBody(httptest.NewRecorder(), r)
	if serr != nil || !bytes.Equal(got, want) {
		t.Fatalf("read %d of %d bytes, error %v", len(got), len(want), serr)
	}
	bytePool.put(got)
}

// TestOverflowedJSONResultIs422: a well-formed transform whose result leaves
// the float64 range has no JSON spelling. The reply says so with a 422 rather
// than a 200 cut short; the binary format carries the infinities as they are.
func TestOverflowedJSONResultIs422(t *testing.T) {
	s := startServer(t, Config{})
	req := &Request{Dims: []int{4}, Data: []float64{1.5e308, 0, 1.5e308, 0, 1.5e308, 0, 1.5e308, 0}}
	jsonBody, _ := json.Marshal(req)
	resp, err := http.Post(s.URL()+"/fft", "application/json", bytes.NewReader(jsonBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var eb errorBody
	if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || resp.StatusCode != http.StatusUnprocessableEntity ||
		!strings.Contains(eb.Error, "not representable") {
		t.Errorf("JSON: status %d, body %+v, %v; want a 422 that names the reason", resp.StatusCode, eb, err)
	}

	binaryBody, err := EncodeRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(s.URL()+"/fft", "application/octet-stream", bytes.NewReader(binaryBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frame, _ := io.ReadAll(resp.Body)
	out, err := DecodeResponse(frame)
	if err != nil || resp.StatusCode != http.StatusOK || !math.IsInf(out.Data[0], 1) {
		t.Errorf("binary: status %d, %v, data %v; want 200 with +Inf in bin 0", resp.StatusCode, err, out)
	}
}

// TestAbandonedRequestKeepsItsBuffer drives the one exception to "the
// handler releases the task": a client that goes away before its batch runs.
// Its payload buffer must not return to the pool, because a worker is yet to
// transform it — if it did, the next same-size request would decode into
// memory a worker is about to write. Released buffers are poisoned, so that
// a reply rendered from one shows as well.
func TestAbandonedRequestKeepsItsBuffer(t *testing.T) {
	complexPool.poison = func(s []complex128) {
		for i := range s {
			s[i] = complex(math.NaN(), math.NaN())
		}
	}
	bytePool.poison = func(s []byte) {
		for i := range s {
			s[i] = 0xFF
		}
	}
	defer func() { complexPool.poison, bytePool.poison = nil, nil }()

	// One slow worker, no coalescing: requests run one by one, in order.
	s := New(Config{Workers: 1, MaxBatch: 1})
	s.cfg.execDelay = 20 * time.Millisecond
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	dims := []int{8, 8, 8}
	post := func(ctx context.Context, seed int64, binary bool) ([]float64, []float64, error) {
		data := randomData(seed, 512)
		r := &Request{Dims: dims, Data: data}
		body, contentType := []byte(nil), "application/json"
		if binary {
			body, _ = EncodeRequest(r)
			contentType = "application/octet-stream"
		} else {
			body, _ = json.Marshal(r)
		}
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, s.URL()+"/fft", bytes.NewReader(body))
		req.Header.Set("Content-Type", contentType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			return nil, nil, fmt.Errorf("status %d, %v", resp.StatusCode, err)
		}
		out := new(Response)
		if binary {
			out, err = DecodeResponse(raw)
		} else {
			err = json.Unmarshal(raw, out)
		}
		if err != nil {
			return nil, nil, err
		}
		return out.Data, referenceTransform(dims, data, fft.Forward, false), nil
	}

	var wg sync.WaitGroup
	for round := 0; round < 6; round++ {
		// The abandoned request: queued behind the worker's delay, then its
		// client goes away.
		ctx, cancel := context.WithCancel(context.Background())
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, _, err := post(ctx, seed, seed%2 == 0); err == nil {
				t.Error("the abandoned request was answered before its client gave up")
			}
		}(int64(1000 + round))
		time.Sleep(5 * time.Millisecond)
		cancel()
		// Same-size requests keep the pool's classes in use while the
		// abandoned batch is still to run.
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				got, want, err := post(context.Background(), seed, seed%2 == 0)
				if err != nil {
					t.Error(err)
					return
				}
				assertClose(t, got, want)
			}(int64(10*round + i))
		}
	}
	wg.Wait()
}

// TestDecodeEncodeSpansNest: the five phase spans stay direct children of
// the request span — the benchmark reads exactly those — and decode and
// encode say where inside them the time went: read + parse, render + write.
func TestDecodeEncodeSpansNest(t *testing.T) {
	s := startServer(t, Config{})
	id := trace.NewTraceID()
	if code, _, _ := postJSON(t, s.URL(), &Request{Dims: []int{8, 8}, Data: randomData(1, 64), TraceID: id}); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	var dump RequestDump
	getJSON(t, s.URL()+"/debug/fftx/requests", &dump)
	if len(dump.Recent) != 1 || dump.Recent[0].TraceID != id {
		t.Fatalf("recent requests %+v, want the one traced request", dump.Recent)
	}
	tree := dump.Recent[0].Spans
	for _, err := range tree.ValidateSpans() {
		t.Error(err)
	}
	byName := map[string]trace.Span{}
	for _, sp := range tree.Spans {
		byName[sp.Name] = sp
	}
	root := tree.Root()
	for _, name := range []string{"decode", "queue", "coalesce", "exec", "encode"} {
		if sp, ok := byName[name]; !ok || sp.Parent != root.ID {
			t.Errorf("phase span %q: parent %d, want the request span %d", name, sp.Parent, root.ID)
		}
	}
	for child, parent := range map[string]string{"read": "decode", "parse": "decode", "render": "encode", "write": "encode"} {
		c, ok := byName[child]
		p := byName[parent]
		if !ok || c.Parent != p.ID {
			t.Errorf("span %q: parent %d, want %q (%d)", child, c.Parent, parent, p.ID)
			continue
		}
		if c.StartNS < p.StartNS || c.EndNS > p.EndNS || c.EndNS == 0 {
			t.Errorf("span %q [%d, %d] is not inside %q [%d, %d]", child, c.StartNS, c.EndNS, parent, p.StartNS, p.EndNS)
		}
	}
	if d := byName["decode"]; byName["read"].EndNS != byName["parse"].StartNS || byName["parse"].EndNS != d.EndNS {
		t.Error("read and parse do not tile the decode span")
	}
}
