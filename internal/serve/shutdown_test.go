package serve

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"
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
	time.Sleep(50 * time.Millisecond)
	baseline := runtime.NumGoroutine()

	// One slow worker, batching off: the first requests occupy the worker
	// and the batch buffer, the rest stay queued when the drain begins.
	s := New(Config{Workers: 1, QueueDepth: 8, MaxBatch: 1})
	s.cfg.execDelay = 250 * time.Millisecond
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}

	const clients = 5
	codes := make([]int, clients)
	retryAfter := make([]string, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, _, hdr := postJSON(t, s.URL(), &Request{Dims: []int{16}, Data: randomData(int64(i), 16)})
			codes[i] = code
			retryAfter[i] = hdr.Get("Retry-After")
		}(i)
		time.Sleep(20 * time.Millisecond) // stagger so admission order is stable
	}
	time.Sleep(30 * time.Millisecond) // all five admitted, first one executing

	addr := s.Addr()
	ctx, cancel = contextWithTimeout(5 * time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
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
	deadline := time.Now().Add(2 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
			break
		}
		time.Sleep(20 * time.Millisecond)
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
// is held open by a slow in-flight batch.
func TestHealthzDraining(t *testing.T) {
	s := New(Config{Workers: 1, MaxBatch: 1})
	s.cfg.execDelay = 300 * time.Millisecond
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	url := s.URL()

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
	time.Sleep(50 * time.Millisecond) // request in flight on the worker

	done := make(chan error, 1)
	go func() {
		ctx, cancel := contextWithTimeout(5 * time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	time.Sleep(50 * time.Millisecond) // drain begun, worker still busy

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz during drain: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: status %d, want 503", resp.StatusCode)
	}

	if err := <-done; err != nil {
		t.Errorf("shutdown: %v", err)
	}
	wg.Wait()
}
