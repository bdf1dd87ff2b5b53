package par

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// resetState restores the package defaults after a test that toggles them.
func resetState(t *testing.T) {
	t.Helper()
	t.Cleanup(func() {
		SetEnabled(true)
		SetWorkers(0)
	})
}

// Every index must be visited exactly once, whatever the worker count.
func TestParallelForCoversRange(t *testing.T) {
	resetState(t)
	for _, w := range []int{1, 2, 3, 8} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			for _, grain := range []int{1, 3, 64, 100000} {
				visits := make([]int32, n)
				ParallelFor(n, grain, func(lo, hi int) {
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("w=%d n=%d grain=%d: bad range [%d,%d)", w, n, grain, lo, hi)
						return
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&visits[i], 1)
					}
				})
				for i, v := range visits {
					if v != 1 {
						t.Fatalf("w=%d n=%d grain=%d: index %d visited %d times", w, n, grain, i, v)
					}
				}
			}
		}
	}
}

// Results must be bit-identical with parallelism on and off: the chunk
// layout is fixed, and bodies only write their own range.
func TestParallelForDeterministic(t *testing.T) {
	resetState(t)
	n := 513
	run := func() []float64 {
		out := make([]float64, n)
		ParallelFor(n, 10, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				out[i] = float64(i) * 1.5
			}
		})
		return out
	}
	SetEnabled(false)
	serial := run()
	SetEnabled(true)
	SetWorkers(4)
	parallel := run()
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Fatalf("index %d: serial %v parallel %v", i, serial[i], parallel[i])
		}
	}
}

func TestParallelForDisabledRunsInline(t *testing.T) {
	resetState(t)
	SetEnabled(false)
	calls := 0
	ParallelFor(100, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("disabled ParallelFor split the range: [%d,%d)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("disabled ParallelFor ran %d chunks", calls)
	}
}

func TestParallelForGrainFloorsChunks(t *testing.T) {
	resetState(t)
	SetWorkers(8)
	ParallelFor(100, 30, func(lo, hi int) {
		if hi-lo < 30 && hi != 100 {
			t.Fatalf("chunk [%d,%d) smaller than grain", lo, hi)
		}
	})
}

func TestParallelForPanicPropagates(t *testing.T) {
	resetState(t)
	SetWorkers(4)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("panic in body was swallowed")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, "boom") {
			t.Fatalf("unexpected panic value %v", r)
		}
	}()
	ParallelFor(100, 1, func(lo, hi int) {
		if lo == 0 {
			panic("boom")
		}
	})
}

func TestSetWorkersRestoresDefault(t *testing.T) {
	resetState(t)
	SetWorkers(7)
	if Workers() != 7 {
		t.Fatalf("Workers() = %d, want 7", Workers())
	}
	SetWorkers(0)
	if Workers() < 1 {
		t.Fatalf("Workers() = %d after reset", Workers())
	}
}

// A fan-out allocates nothing of its own: the claim counter, WaitGroup and
// panic slot live in a pooled job, and helpers receive the job itself. A
// prebuilt body therefore makes the whole call allocation-free.
func TestParallelForAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the pin only holds in normal builds")
	}
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the helper pool is empty below GOMAXPROCS 2: every fan-out starts a goroutine")
	}
	resetState(t)
	SetWorkers(2)
	out := make([]int, 64)
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i]++
		}
	}
	call := func() { ParallelFor(len(out), 1, body) }
	call() // start the pool and fill the job pool
	if avg := testing.AllocsPerRun(100, call); avg != 0 {
		t.Fatalf("ParallelFor fan-out: %v allocs per call, want 0", avg)
	}
}

// A helper marks itself spinning before it signals the caller, so a
// back-to-back call always finds it and starts no goroutine.
func TestParallelForBackToBackStartsNoGoroutine(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the helper pool is empty below GOMAXPROCS 2: every fan-out starts a goroutine")
	}
	resetState(t)
	SetWorkers(2)
	var visits [64]int32
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	}
	ParallelFor(len(visits), 1, body) // start the pool
	const calls = 1000
	before := goStarts.Load()
	for c := 0; c < calls; c++ {
		ParallelFor(len(visits), 1, body)
	}
	if n := goStarts.Load() - before; n != 0 {
		t.Errorf("%d back-to-back calls started %d goroutines, want 0", calls, n)
	}
	for i, v := range visits {
		if v != calls+1 {
			t.Fatalf("index %d visited %d times, want %d", i, v, calls+1)
		}
	}
}

// After an idle gap every helper stops spinning and parks, and a parked
// helper takes the next call without a fresh goroutine. The wait polls
// under a deadline of seconds instead of sleeping for the spin window.
func TestParallelForHelpersParkWhenIdle(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the helper pool is empty below GOMAXPROCS 2")
	}
	resetState(t)
	SetWorkers(2)
	var visits [64]int32
	body := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&visits[i], 1)
		}
	}
	ParallelFor(len(visits), 1, body)
	deadline := time.Now().Add(5 * time.Second)
	for !allParked() {
		if time.Now().After(deadline) {
			t.Fatal("helpers still not parked 5 s after the last call")
		}
		runtime.Gosched()
	}
	before := goStarts.Load()
	ParallelFor(len(visits), 1, body)
	if n := goStarts.Load() - before; n != 0 {
		t.Errorf("a call after the helpers parked started %d goroutines, want 0", n)
	}
	for i, v := range visits {
		if v != 2 {
			t.Fatalf("index %d visited %d times, want 2", i, v)
		}
	}
}

// allParked reports whether every pool helper is parked.
func allParked() bool {
	for _, h := range helpers {
		if h.slot.Load() != parked {
			return false
		}
	}
	return true
}

// Concurrent callers each get their own pooled job. Three workers on a
// two-core box also drive the go fallback for helpers beyond the pool.
func TestParallelForConcurrentCallers(t *testing.T) {
	resetState(t)
	SetWorkers(3)
	const callers, calls, n = 4, 200, 97
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]int, n)
			for c := 0; c < calls; c++ {
				ParallelFor(n, 1, func(lo, hi int) {
					for i := lo; i < hi; i++ {
						out[i] = g*100000 + c*n + i
					}
				})
				for i, v := range out {
					if want := g*100000 + c*n + i; v != want {
						errs <- fmt.Errorf("caller %d call %d: index %d = %d, want %d", g, c, i, v, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// A pooled job that carried a panic must come back clean: the next call
// covers its whole range and does not re-raise the old panic.
func TestParallelForPanicThenReuse(t *testing.T) {
	resetState(t)
	SetWorkers(4)
	const n = 64
	for round := 0; round < 20; round++ {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("round %d: panic in body was swallowed", round)
				}
			}()
			ParallelFor(n, 1, func(lo, hi int) {
				if lo == 0 {
					panic("boom")
				}
			})
		}()
		var visits [n]int32
		ParallelFor(n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&visits[i], 1)
			}
		})
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("round %d: index %d visited %d times after a panicking call", round, i, v)
			}
		}
	}
}
