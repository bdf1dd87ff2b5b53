package vtime

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEngine(nil)
	var end Time
	script(e, "a", func(p *Proc) { p.Sleep(1.5) }, func(p *Proc) { p.Sleep(2.5) }, func(p *Proc) { end = p.Now() })
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
			tick := func(p *Proc) { p.Sleep(1) }
			note := func(p *Proc) { order = append(order, nm) }
			script(e, nm, tick, note, tick, note, tick, note)
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
	script(e, "w", func(p *Proc) { p.Compute(Job{Work: 10}) }, func(p *Proc) { d = p.Now() })
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
	script(e, "a", func(p *Proc) { p.Compute(Job{Work: 2}) }, func(p *Proc) { endA = p.Now() })
	script(e, "b", func(p *Proc) { p.Compute(Job{Work: 2}) }, func(p *Proc) { endB = p.Now() })
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
	script(e, "a", func(p *Proc) { p.Compute(Job{Work: 3}) }, func(p *Proc) { endA = p.Now() })
	script(e, "b", func(p *Proc) { p.Sleep(1) }, func(p *Proc) { p.Compute(Job{Work: 1}) }, func(p *Proc) { endB = p.Now() })
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
	script(e, "waiter", func(p *Proc) { wq.Wait(p) }, func(p *Proc) { woken = p.Now() })
	script(e, "waker", func(p *Proc) { p.Sleep(3) }, func(p *Proc) { wq.WakeOne(p) })
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
	script(e, "stuck", func(p *Proc) { wq.Wait(p) })
	if err := e.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

func TestSemaphore(t *testing.T) {
	e := NewEngine(nil)
	s := NewSemaphore(2)
	active, maxActive := 0, 0
	for i := 0; i < 6; i++ {
		holding := false
		machine(e, "p", func(p *Proc) bool {
			if holding {
				active--
				s.Release(p)
				return true
			}
			if holding = s.Acquire(p); holding {
				active++
				maxActive = max(maxActive, active)
				p.Sleep(1)
			}
			return false
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
	script(e, "parent", func(p *Proc) { p.Sleep(2) }, func(p *Proc) {
		script(p.Engine(), "child", func(c *Proc) { c.Sleep(1) }, func(c *Proc) { childEnd = c.Now() })
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
	script(e, "w", func(p *Proc) {
		if p.Compute(Job{Work: 0}); p.Suspended() {
			t.Error("zero work suspended the process")
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
		next := 0
		machine(e, "w", func(p *Proc) bool {
			if next == len(parts) {
				return true
			}
			p.Compute(Job{Work: float64(parts[next])})
			total += float64(parts[next])
			next++
			return false
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
			total += w
			script(e, "w", func(p *Proc) { p.Compute(Job{Work: w}) })
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
		script(e, "w", func(p *Proc) { p.Compute(Job{Work: 1}) }, func(p *Proc) { p.Sleep(1) })
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
	helper := parker(e, "helper", func(p *Proc) { resumed = append(resumed, p.Now()) })
	script(e, "poster", func(p *Proc) { p.Sleep(2) }, func(p *Proc) {
		e.Unpark(helper)
		p.Sleep(3)
	}, func(p *Proc) { e.Unpark(helper) })
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
		note := func(name string) ResumeFunc { return func(*Proc) { got = append(got, name) } }
		if reuse {
			parked = parker(e, "job", note("job"))
		}
		script(e, "main", func(p *Proc) { p.Sleep(1) }, func(p *Proc) {
			e.Spawn("before", note("before"))
			if reuse {
				e.Unpark(parked)
			} else {
				e.Spawn("job", note("job"))
			}
			e.Spawn("after", note("after"))
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

// TestRunReleasesGoroutines: whatever Run returns, the processes that did
// not finish — parked, blocked, never dispatched — are done after it, and
// each row ends with its error text.
func TestRunReleasesGoroutines(t *testing.T) {
	for _, tc := range []struct {
		name, err string
		last      func(p *Proc)
	}{
		{"success", "<nil>", func(p *Proc) {}},
		{"deadlock", "vtime: deadlock at t=2: 2 blocked processes:\n" +
			"  last (id 2, blocked since t=1): unknown (Block without a wait description)\n" +
			"  waiter (id 1, blocked since t=0): unknown (Block without a wait description)", func(p *Proc) { p.Block() }},
		{"panic", `vtime: process "last" panicked at t=1: boom`, func(p *Proc) { panic("boom") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(nil)
			var wq WaitQueue
			script(e, "parked", func(p *Proc) { p.Park() })
			script(e, "waiter", func(p *Proc) { wq.Wait(p) })
			script(e, "last", func(p *Proc) { p.Sleep(1) }, func(p *Proc) {
				if tc.name == "success" {
					wq.WakeAll(p)
				}
				tc.last(p)
			})
			script(e, "late", func(p *Proc) { p.Sleep(2) })
			if err := e.Run(); fmt.Sprint(err) != tc.err {
				t.Errorf("Run() = %v, want %s", err, tc.err)
			}
			checkReleased(t, e)
		})
	}
}

// machine spawns a process driven by step, a state machine that reports
// whether it is done: the process calls it until it suspends, and again
// when it next runs.
func machine(e *Engine, name string, step func(p *Proc) bool) *Proc {
	return e.Spawn(name, ResumeFunc(func(p *Proc) {
		for !step(p) && !p.Suspended() {
		}
	}))
}

// script spawns a process that runs steps in order, each of which suspends
// the process at most once, as its last action.
func script(e *Engine, name string, steps ...func(p *Proc)) *Proc {
	next := 0
	return machine(e, name, func(p *Proc) bool {
		if next == len(steps) {
			return true
		}
		next++
		steps[next-1](p)
		return false
	})
}

// parker spawns a process that parks and, each time it is unparked, runs
// woken and parks again.
func parker(e *Engine, name string, woken func(p *Proc)) *Proc {
	parked := false
	return e.Spawn(name, ResumeFunc(func(p *Proc) {
		if parked {
			woken(p)
		}
		parked = true
		p.Park()
	}))
}

// checkReleased fails the test unless every process of e is done.
func checkReleased(t *testing.T, e *Engine) {
	t.Helper()
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
		script(e, "w", func(p *Proc) { p.Compute(Job{Work: float64(i + 1)}) })
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

// TestStepCounts pins the dispatch steps of a run: one per wake-up, the
// first dispatch included, so a lone sleeper costs 1 001 steps for 1 000
// sleeps, and two processes in ping-pong 1 002.
func TestStepCounts(t *testing.T) {
	for _, tc := range []struct {
		procs, sleeps int
		steps         uint64
	}{{1, 1000, 1001}, {2, 500, 1002}} {
		e := NewEngine(nil)
		for i := 0; i < tc.procs; i++ {
			slept := 0
			machine(e, "sleeper", func(p *Proc) bool {
				if slept == tc.sleeps {
					return true
				}
				slept++
				p.Sleep(1)
				return false
			})
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		if st := e.Stats(); st.Steps != tc.steps {
			t.Errorf("%d processes of %d sleeps: %d steps, want %d", tc.procs, tc.sleeps, st.Steps, tc.steps)
		}
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
		script(e, "w", func(p *Proc) { p.Sleep(float64(i)) }, // arrive in id order, one per second
			func(p *Proc) { wq.Wait(p) }, func(p *Proc) { woken = append(woken, i) })
	}
	wake := func(p *Proc) {
		wq.WakeOne(p) // wakes overlap arrivals: the head moves while waiters append
		p.Sleep(1.5)
	}
	script(e, "waker", func(p *Proc) { p.Sleep(1.5) }, wake, wake, wake, wake, wake, wake)
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

// TestCallbackMatchesGoroutine: processes sleeping, computing under
// processor sharing, waiting on a semaphore and a queue, and parking run
// the events that the same processes ran as goroutine processes, a kind
// since removed, in the same order: the log and counters below are that
// run's.
func TestCallbackMatchesGoroutine(t *testing.T) {
	e := NewEngine(halveShares{})
	var log []string
	note := func(p *Proc) { log = append(log, fmt.Sprintf("%s@%g", p.Name(), p.Now())) }
	sem := NewSemaphore(1)
	var wq WaitQueue
	arrived := 0
	helper := script(e, "helper", func(p *Proc) { p.Park() }, note, func(p *Proc) { p.Park() }, note)
	for i := 1; i <= 4; i++ {
		pc := 0
		machine(e, fmt.Sprintf("w%d", i), func(p *Proc) bool {
			switch pc {
			case 0:
				p.Sleep(float64(i%2) * 0.5)
			case 1:
				if !sem.Acquire(p) {
					return false // called again once woken
				}
				note(p)
				p.Compute(Job{Work: float64(i), Lane: i})
			case 2:
				note(p)
				sem.Release(p)
				p.Compute(Job{Work: 2, Lane: i})
			case 3:
				// The last to arrive releases the others and the helper.
				note(p)
				if arrived++; arrived == 4 {
					wq.WakeAll(p)
					e.Unpark(helper)
				} else {
					wq.Wait(p)
				}
			default:
				note(p)
				return true
			}
			pc++
			return false
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	const want = "[w2@0 w2@2 w4@2 w2@6 w4@8 w1@8 w1@10 w3@10 w4@13 w1@15 w3@16 w3@18 w3@18 w2@18 w4@18 w1@18 helper@18]"
	if got := fmt.Sprint(log); got != want {
		t.Errorf("logged\n%s\nwant\n%s", got, want)
	}
	if st := e.Stats(); st.Steps != 24 || st.JobsCompleted != 8 || st.RateUpdates != 8 {
		t.Errorf("stats %+v, want 24 steps, 8 jobs and 8 rate updates", st)
	}
}

// halveShares rates every job by the number of jobs sharing the machine.
type halveShares struct{}

func (halveShares) Rates(jobs []*ActiveJob) {
	for _, j := range jobs {
		j.Rate = 1 / float64(len(jobs))
	}
}
