package vtime

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
	"time"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine(nil)
	var end Time
	e.Spawn("a", func(p *Proc) {
		p.Sleep(1.5)
		p.Sleep(2.5)
		end = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 4.0 {
		t.Fatalf("end = %v, want 4.0", end)
	}
	if e.Now() != 4.0 {
		t.Fatalf("engine now = %v, want 4.0", e.Now())
	}
}

func TestProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine(nil)
		var order []string
		for _, nm := range []string{"a", "b", "c"} {
			nm := nm
			e.Spawn(nm, func(p *Proc) {
				for i := 0; i < 3; i++ {
					p.Sleep(1)
					order = append(order, nm)
				}
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	want := []string{"a", "b", "c", "a", "b", "c", "a", "b", "c"}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("order %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("nondeterministic order on trial %d: %v vs %v", trial, got, first)
			}
		}
	}
}

func TestComputeUnitMachine(t *testing.T) {
	e := NewEngine(nil)
	var d Time
	e.Spawn("w", func(p *Proc) {
		d = p.Compute(Job{Work: 10})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if d != 10 {
		t.Fatalf("duration %v, want 10", d)
	}
}

// halfShare splits a fixed capacity of 2 work-units/sec evenly among active
// jobs, the canonical processor-sharing machine.
type halfShare struct{}

func (halfShare) Rates(jobs []*ActiveJob) {
	r := 2.0 / float64(len(jobs))
	for _, j := range jobs {
		j.Rate = r
	}
}

func TestProcessorSharingRates(t *testing.T) {
	// Two jobs of work 2 each on a capacity-2 machine: alone each takes 1s,
	// together they share and both finish at t=2.
	e := NewEngine(halfShare{})
	var endA, endB Time
	e.Spawn("a", func(p *Proc) {
		p.Compute(Job{Work: 2})
		endA = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		p.Compute(Job{Work: 2})
		endB = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(endA-2) > 1e-12 || math.Abs(endB-2) > 1e-12 {
		t.Fatalf("ends %v %v, want 2 2", endA, endB)
	}
}

func TestProcessorSharingStaggered(t *testing.T) {
	// a starts work 3 at t=0 (rate 2 alone). b starts work 1 at t=1.
	// At t=1 a has 1 unit left; both share rate 1 each. Both finish at t=2.
	e := NewEngine(halfShare{})
	var endA, endB Time
	e.Spawn("a", func(p *Proc) {
		p.Compute(Job{Work: 3})
		endA = p.Now()
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(1)
		p.Compute(Job{Work: 1})
		endB = p.Now()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(endA-2) > 1e-12 {
		t.Fatalf("endA = %v, want 2", endA)
	}
	if math.Abs(endB-2) > 1e-12 {
		t.Fatalf("endB = %v, want 2", endB)
	}
}

func TestBlockWake(t *testing.T) {
	e := NewEngine(nil)
	var wq WaitQueue
	var woken Time
	e.Spawn("waiter", func(p *Proc) {
		wq.Wait(p)
		woken = p.Now()
	})
	e.Spawn("waker", func(p *Proc) {
		p.Sleep(3)
		wq.WakeOne(p)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken at %v, want 3", woken)
	}
}

func TestDeadlockDetected(t *testing.T) {
	e := NewEngine(nil)
	var wq WaitQueue
	e.Spawn("stuck", func(p *Proc) {
		wq.Wait(p)
	})
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestSemaphore(t *testing.T) {
	e := NewEngine(nil)
	s := NewSemaphore(2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		e.Spawn("p", func(p *Proc) {
			s.Acquire(p)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Sleep(1)
			active--
			s.Release(p)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxActive != 2 {
		t.Fatalf("max concurrent = %d, want 2", maxActive)
	}
	if e.Now() != 3 {
		t.Fatalf("finished at %v, want 3", e.Now())
	}
}

func TestSpawnDuringRun(t *testing.T) {
	e := NewEngine(nil)
	var childEnd Time
	e.Spawn("parent", func(p *Proc) {
		p.Sleep(2)
		p.Engine().Spawn("child", func(c *Proc) {
			c.Sleep(1)
			childEnd = c.Now()
		})
		p.Sleep(5)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 3 {
		t.Fatalf("child ended at %v, want 3", childEnd)
	}
}

func TestZeroWorkComputeIsFree(t *testing.T) {
	e := NewEngine(nil)
	e.Spawn("w", func(p *Proc) {
		if d := p.Compute(Job{Work: 0}); d != 0 {
			t.Errorf("zero work took %v", d)
		}
		if p.Now() != 0 {
			t.Errorf("clock moved to %v", p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: for the unit machine, total elapsed time of a sequence of jobs
// equals the sum of their works, independent of how the work is split.
func TestPropertyComputeAdditive(t *testing.T) {
	f := func(parts []uint8) bool {
		if len(parts) == 0 || len(parts) > 50 {
			return true
		}
		e := NewEngine(nil)
		var total float64
		e.Spawn("w", func(p *Proc) {
			for _, w := range parts {
				p.Compute(Job{Work: float64(w)})
				total += float64(w)
			}
		})
		if err := e.Run(); err != nil {
			return false
		}
		return math.Abs(e.Now()-total) < 1e-9*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: with processor sharing at fixed capacity, total completion time
// of simultaneously started jobs equals total work divided by capacity
// (work-conserving scheduler).
func TestPropertyWorkConserving(t *testing.T) {
	f := func(works []uint8) bool {
		var jobs []float64
		for _, w := range works {
			if w > 0 {
				jobs = append(jobs, float64(w))
			}
		}
		if len(jobs) == 0 || len(jobs) > 20 {
			return true
		}
		e := NewEngine(halfShare{})
		var total float64
		for _, w := range jobs {
			w := w
			total += w
			e.Spawn("w", func(p *Proc) {
				p.Compute(Job{Work: w})
			})
		}
		if err := e.Run(); err != nil {
			return false
		}
		// All jobs started at t=0 and the machine always delivers 2
		// units/sec while any job is active, so the last completion is at
		// total/2.
		return math.Abs(e.Now()-total/2) < 1e-9*(1+total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineStats(t *testing.T) {
	e := NewEngine(nil)
	for i := 0; i < 3; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Compute(Job{Work: 1})
			p.Sleep(1)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.ProcsSpawned != 3 {
		t.Fatalf("spawned %d", st.ProcsSpawned)
	}
	if st.JobsCompleted != 3 {
		t.Fatalf("jobs %d", st.JobsCompleted)
	}
	if st.Steps == 0 || st.RateUpdates == 0 {
		t.Fatalf("stats %+v", st)
	}
}

// TestParkUnpark: a parked process keeps no run going and is in no
// deadlock report; unparked, it resumes where it parked, at the
// unparking process's time.
func TestParkUnpark(t *testing.T) {
	e := NewEngine(nil)
	var resumed []Time
	helper := e.Spawn("helper", func(p *Proc) {
		for {
			p.Park()
			resumed = append(resumed, p.Now())
		}
	})
	e.Spawn("poster", func(p *Proc) {
		for _, at := range []Time{2, 5} {
			p.Sleep(at - p.Now())
			e.Unpark(helper)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatalf("Run() = %v with only a parked process left, want nil", err)
	}
	if len(resumed) != 2 || resumed[0] != 2 || resumed[1] != 5 {
		t.Fatalf("helper resumed at %v, want [2 5]", resumed)
	}
}

// TestUnparkTakesSpawnOrder: an unparked process is ordered among the
// processes made runnable at the same time exactly where a process spawned
// in its place would be, so reusing a parked process for new work leaves
// the event order unchanged.
func TestUnparkTakesSpawnOrder(t *testing.T) {
	order := func(reuse bool) []string {
		e := NewEngine(nil)
		var got []string
		var parked *Proc
		if reuse {
			parked = e.Spawn("job", func(p *Proc) {
				for {
					p.Park()
					got = append(got, "job")
				}
			})
		}
		e.Spawn("main", func(p *Proc) {
			p.Sleep(1)
			e.Spawn("before", func(*Proc) { got = append(got, "before") })
			if reuse {
				e.Unpark(parked)
			} else {
				e.Spawn("job", func(*Proc) { got = append(got, "job") })
			}
			e.Spawn("after", func(*Proc) { got = append(got, "after") })
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	spawned, reused := order(false), order(true)
	if fmt.Sprint(spawned) != fmt.Sprint(reused) {
		t.Fatalf("unparked order %v, spawned order %v", reused, spawned)
	}
}

// TestRunReleasesGoroutines: whatever Run returns, the goroutines of the
// processes that did not finish — parked, blocked, never dispatched — are
// gone soon after, and those processes are done.
func TestRunReleasesGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name string
		last func(p *Proc)
	}{
		{"success", func(p *Proc) {}},
		{"deadlock", func(p *Proc) { p.Block() }},
		{"panic", func(p *Proc) { panic("boom") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			e := NewEngine(nil)
			var wq WaitQueue
			e.Spawn("parked", func(p *Proc) { p.Park() })
			e.Spawn("waiter", func(p *Proc) { wq.Wait(p) })
			e.Spawn("last", func(p *Proc) {
				p.Sleep(1)
				if tc.name == "success" {
					wq.WakeAll(p)
				}
				tc.last(p)
			})
			e.Spawn("late", func(p *Proc) { p.Sleep(2) })
			err := e.Run()
			if (err == nil) != (tc.name == "success") {
				t.Fatalf("Run() = %v", err)
			}
			checkReleased(t, e, baseline)
		})
	}
}

// checkReleased fails the test unless the goroutine count falls back to
// baseline soon and every process of e is done.
func checkReleased(t *testing.T, e *Engine, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
	for _, p := range e.procs {
		if p.state != stateDone {
			t.Errorf("process %q in state %d after Run", p.name, p.state)
		}
	}
}

// TestRatesRefreshOncePerClockAdvance: jobs that start together are rated
// once, when the clock first has to move, not once per start; each
// completion costs one more refresh, the last none. N jobs started at t=0
// cost N refreshes, where a refresh per job start and finish costs 2N-1.
func TestRatesRefreshOncePerClockAdvance(t *testing.T) {
	const n = 64
	e := NewEngine(UnitMachine{})
	for i := 0; i < n; i++ {
		e.Spawn("w", func(p *Proc) { p.Compute(Job{Work: float64(i + 1)}) })
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.JobsCompleted != n || e.Now() != n {
		t.Fatalf("%d jobs completed by t=%v, want %d by t=%d", st.JobsCompleted, e.Now(), n, n)
	}
	if st.RateUpdates > n {
		t.Fatalf("%d rate refreshes for %d jobs started together, want at most %d", st.RateUpdates, n, n)
	}
}

// TestHandoffCounts pins the goroutine switches of a run: a process that
// picks itself to run next keeps running, so a lone sleeper costs one
// handoff, its first dispatch, while two processes in strict ping-pong
// cost one handoff per step.
func TestHandoffCounts(t *testing.T) {
	lone := NewEngine(nil)
	lone.Spawn("lone", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(1)
		}
	})
	if err := lone.Run(); err != nil {
		t.Fatal(err)
	}
	if st := lone.Stats(); st.Steps != 1001 || st.Handoffs != 1 {
		t.Errorf("lone sleeper: %d steps, %d handoffs, want 1001 and 1", st.Steps, st.Handoffs)
	}

	pingPong := NewEngine(nil)
	for _, name := range []string{"ping", "pong"} {
		pingPong.Spawn(name, func(p *Proc) {
			for i := 0; i < 500; i++ {
				p.Sleep(1)
			}
		})
	}
	if err := pingPong.Run(); err != nil {
		t.Fatal(err)
	}
	if st := pingPong.Stats(); st.Steps != 1002 || st.Handoffs != st.Steps {
		t.Errorf("ping-pong: %d steps, %d handoffs, want 1002 of each", st.Steps, st.Handoffs)
	}
}

// TestWaitQueueKeepsFIFOAcrossReuse: the queue reuses its backing array —
// waking from the head, shifting down when full — and still wakes in
// arrival order.
func TestWaitQueueKeepsFIFOAcrossReuse(t *testing.T) {
	e := NewEngine(nil)
	var wq WaitQueue
	var woken []int
	for i := 0; i < 6; i++ {
		e.Spawn("w", func(p *Proc) {
			p.Sleep(float64(i)) // arrive in id order, one per second
			wq.Wait(p)
			woken = append(woken, i)
		})
	}
	e.Spawn("waker", func(p *Proc) {
		for i := 0; i < 6; i++ {
			p.Sleep(1.5)
			wq.WakeOne(p) // wakes overlap arrivals: the head moves while waiters append
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(woken) != "[0 1 2 3 4 5]" {
		t.Fatalf("woken in order %v, want arrival order", woken)
	}
	if wq.Len() != 0 {
		t.Fatalf("queue holds %d waiters after draining", wq.Len())
	}
}
