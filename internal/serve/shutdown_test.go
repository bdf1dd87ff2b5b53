package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
)

// TestServeGracefulShutdown exercises the drain contract end to end:
//
//   - requests already executing (or handed to the worker pool) complete
//     with 200,
//   - requests still queued behind them are rejected with 503 + Retry-After,
//   - the listener closes once the in-flight exchanges finish,
//   - and no server goroutines outlive the drain.
func TestServeGracefulShutdown(t *testing.T) {
	// Warm everything that legitimately persists beyond one server: the
	// par worker pool (its goroutines never exit by design) and the HTTP
	// client transport. Only then is the goroutine count a usable baseline.
	warm := startServer(t, Config{Workers: 1})
	if code, _, _ := postJSON(t, warm.URL(), &Request{Dims: []int{8, 8}, Data: randomData(1, 64)}); code != http.StatusOK {
		t.Fatalf("warmup request: status %d", code)
	}
	ctx, cancel := contextWithTimeout(5 * time.Second)
	if err := warm.Shutdown(ctx); err != nil {
		t.Fatalf("warmup shutdown: %v", err)
	}
	cancel()
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "the warm-up connections to close", func() bool {
		buf := make([]byte, 1<<20)
		stacks := string(buf[:runtime.Stack(buf, true)])
		return !strings.Contains(stacks, "net/http.(*persistConn)") && !strings.Contains(stacks, "net/http.(*conn).serve")
	})
	baseline := runtime.NumGoroutine()

	// One held worker, batching off: the first request occupies the
	// worker, the rest wait in pending groups when the drain begins.
	s, release := startHeld(t, Config{Workers: 1, QueueDepth: 8, MaxBatch: 1})

	const clients = 5
	queued0, inflight0 := mQueueDepth.Value(), mInflight.Value()
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, hdr := postJSON(t, s.URL(), &Request{Dims: []int{16}, Data: randomData(int64(i), 16), TraceID: trace.NewTraceID()})
			codes[i] = code
			retryAfter[i] = hdr.Get("Retry-After")
		}(i)
	}
	// A task counts in the queue-depth gauge from admission until a worker
	// takes it, then in the in-flight gauge.
	waitFor(t, "all five admitted, one executing", func() bool {
		return mInflight.Value()-inflight0 == 1 && mQueueDepth.Value()-queued0 == clients-1
	})

	addr := s.Addr()
	ctx, cancel = contextWithTimeout(5 * time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Shutdown(ctx) }()
	// The drain rejects the pending four while the fifth still executes.
	waitFor(t, "the drain to reject every pending request", func() bool {
		return mQueueDepth.Value() == queued0
	})
	release()
	if err := <-drained; err != nil {
		t.Fatalf("shutdown: %v", err)
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
				t.Errorf("drain 503 reply %d without Retry-After", i)
			}
		default:
			t.Errorf("client %d: unexpected status %d during drain", i, code)
		}
	}
	if ok == 0 {
		t.Error("no in-flight request completed across the drain")
	}
	if rejected == 0 {
		t.Error("no queued request was rejected by the drain")
	}
	if ok+rejected != clients {
		t.Errorf("%d replies accounted for, want %d", ok+rejected, clients)
	}

	// The listener is gone.
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("listener still accepting connections after shutdown")
	}

	// Shutdown is idempotent.
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}

	// No server goroutines survive (the par pool was warmed into the
	// baseline; allow scheduler slack for runtime bookkeeping goroutines).
	http.DefaultClient.CloseIdleConnections()
	waitFor(t, "server goroutines to exit", func() bool { return runtime.NumGoroutine() <= baseline+2 })
}

// waitFor polls cond until it holds and fails the test if it still does not
// after a generous deadline: tests order their steps on server state, not
// on guessed sleeps.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDrainingRejectsNewRequests checks admission refuses fresh work the
// moment the drain begins, and /healthz flips to 503 so load balancers stop
// routing.
func TestDrainingRejectsNewRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	// The listener is closed after a drain, so exercise admission directly.
	if serr := s.admit(newTask(&Request{Op: OpTransform, Dims: []int{4}, Batch: 1, Sign: -1}, "f1d:4", make([]complex128, 4))); serr == nil {
		t.Fatal("admission accepted a task after drain")
	} else if serr.code != http.StatusServiceUnavailable || serr.retryAfter <= 0 {
		t.Errorf("post-drain rejection = %d retry %d, want 503 with Retry-After", serr.code, serr.retryAfter)
	}
	if !s.Draining() {
		t.Error("Draining() false after shutdown")
	}
}

// TestHealthzDraining drives the healthz flip through a server whose drain
// is held open by a held in-flight batch.
func TestHealthzDraining(t *testing.T) {
	s, release := startHeld(t, Config{Workers: 1, MaxBatch: 1})
	url := s.URL()
	inflight0 := mInflight.Value()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, _ := json.Marshal(&Request{Dims: []int{16}, Data: randomData(1, 16)})
		resp, err := http.Post(url+"/fft", "application/json", bytes.NewReader(body))
		if err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "the request to execute on the worker", func() bool { return mInflight.Value()-inflight0 == 1 })

	done := make(chan error, 1)
	go func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	waitFor(t, "the drain to begin", s.Draining)

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", resp.StatusCode)
	}
	// The listener still accepts while the drain waits on the worker, and
	// admission refuses: a traced refusal must close its admit and queue
	// spans.
	if code, _, _ := postJSON(t, url, &Request{Dims: []int{16}, Data: randomData(2, 16), TraceID: trace.NewTraceID()}); code != http.StatusServiceUnavailable {
		t.Errorf("transform during drain: status %d, want 503", code)
	}

	release()
	if err := <-done; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	wg.Wait()
}
