// Package par is a small deterministic host-parallel loop runner for the
// real-numerics kernels of the simulator. It exists to make the repo's
// wall-clock cost scale with host cores: the virtual-time engine runs one
// simulated lane at a time, so without host parallelism a 64-lane run uses
// one core no matter how many the machine has.
//
// ParallelFor(n, grain, fn) splits [0,n) into fixed contiguous chunks and
// runs fn(lo, hi) over them on a pool of worker goroutines sized by
// GOMAXPROCS (the caller participates); a helper spins for a while after
// each job before it parks (see pool). The chunk boundaries depend only on
// the arguments and the configured worker count — never on scheduling — and
// the contract is that fn writes only data indexed by [lo,hi), so results
// are bit-identical to the serial loop regardless of execution order.
// Simulated virtual time is charged by the analytic cost model outside
// these loops, so enabling or disabling host parallelism changes host wall
// clock only, never simulated results.
//
// The package-wide switch mirrors metrics.SetEnabled: SetEnabled(false)
// turns every ParallelFor into the plain serial loop, which is what the
// equivalence tests and the -hostpar=false CLI flag use.
//
// Bodies passed to ParallelFor run on host threads OUTSIDE the virtual-time
// engine: they must not touch mpi.Ctx, vtime procs/waiters or the ompss
// runtime. internal/analysis's TestParBodyRule enforces this: no package
// imports both this package and mpi/vtime/ompss.
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the process-wide host-parallelism switch.
var enabled atomic.Bool

// workers is the target concurrency of one ParallelFor call (chunk
// executors, including the caller).
var workers atomic.Int32

func init() {
	enabled.Store(true)
	workers.Store(int32(runtime.GOMAXPROCS(0)))
}

// SetEnabled turns host parallelism on or off process-wide. When off,
// ParallelFor runs its body serially on the calling goroutine.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether ParallelFor fans out to the worker pool.
func Enabled() bool { return enabled.Load() }

// SetWorkers overrides the per-call concurrency (chunk executors including
// the caller). n < 1 restores the GOMAXPROCS default. Tests use it to force
// real concurrency on small hosts; results are identical either way.
func SetWorkers(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	workers.Store(int32(n))
	rebuildSharedPool()
}

// Workers returns the current per-call concurrency target.
func Workers() int { return int(workers.Load()) }

// pool is the lazily started persistent helper pool, GOMAXPROCS-1
// goroutines. Helpers receive the call's job itself, so a hand-off builds
// no thunk. Helpers beyond the pool size (e.g. SetWorkers above GOMAXPROCS
// in tests, or a pool busy with another caller's job) fall back to fresh
// goroutines, so submit never blocks.
//
// A helper that finishes a job spins for spinWindow before it parks, and
// it marks itself spinning before its wg.Done, so a back-to-back call
// always finds it. Waking a parked helper is slow: the woken goroutine
// sits in the waker P's runnext slot, which an idle P may steal only after
// a usleep(3) that the kernel's 50 µs timer slack stretches, so the helper
// starts 60–100 µs after the send while the caller computes alone. The
// spin is how OpenMP runtimes bound the same cost (KMP_BLOCKTIME); it
// yields with runtime.Gosched, so other runnable goroutines still get the
// helper's P. A helper's state lives in one atomic slot, so submit wins a
// spinning or a parked helper with one CAS and never races its park.
var (
	poolOnce sync.Once
	helpers  []*helper
)

// spinWindow is how long a helper waits for the next hand-off before it
// parks: about one park/wake (60–100 µs on a two-core host, above), so a
// spinning helper burns no more than the hand-off it saves.
const spinWindow = 60 * time.Microsecond

// The markers a helper's slot holds while it waits: spinning for a
// hand-off through the slot, parked on its wake channel. A nil slot means
// the helper is busy.
var spinning, parked = new(job), new(job)

// helper is one pool goroutine. submit hands it a job by swapping its slot
// from spinning to the job, or from parked to busy and sending the job on
// wake, whose buffer takes it even before the helper blocks on it.
type helper struct {
	slot atomic.Pointer[job]
	wake chan *job
}

// goStarts counts the fresh goroutines submit started because no pool
// helper was free.
var goStarts atomic.Int64

func startPool() {
	helpers = make([]*helper, max(runtime.GOMAXPROCS(0)-1, 0))
	for i := range helpers {
		h := &helper{wake: make(chan *job, 1)}
		h.slot.Store(spinning) // takes a hand-off before it first runs
		helpers[i] = h
		go h.loop()
	}
}

// loop runs jobs for good: each comes from the spin, else from wake.
func (h *helper) loop() {
	for {
		j := h.spin()
		if j == nil {
			j = <-h.wake
		}
		j.run()
		h.slot.Store(spinning) // before Done: the caller's next call finds it
		j.wg.Done()
	}
}

// spin waits up to spinWindow for submit to hand over a job and returns
// it, or nil once the helper has marked itself parked.
func (h *helper) spin() *job {
	deadline := time.Now().Add(spinWindow)
	for {
		if j := h.slot.Load(); j != spinning {
			h.slot.Store(nil)
			return j
		}
		if time.Now().After(deadline) && h.slot.CompareAndSwap(spinning, parked) {
			return nil
		}
		runtime.Gosched()
	}
}

// submit gives j to a spinning helper, else to a parked one, else to a
// fresh goroutine.
func submit(j *job) {
	for _, h := range helpers {
		if h.slot.CompareAndSwap(spinning, j) {
			return
		}
	}
	for _, h := range helpers {
		if h.slot.CompareAndSwap(parked, nil) {
			h.wake <- j
			return
		}
	}
	goStarts.Add(1)
	go j.help()
}

// job is the state of one fanned-out ParallelFor call. Jobs are pooled, so
// a call in steady state allocates nothing: the claim counter, the
// WaitGroup and the panic slot all live in the recycled struct. A job goes
// back to the pool only after Wait has seen every helper's Done, and with
// fn and the panic slot cleared, so the next call neither pins the old
// body's captures nor re-raises its panic.
type job struct {
	fn       func(lo, hi int)
	n, chunk int
	nc       int
	next     atomic.Int32
	wg       sync.WaitGroup
	panicked atomic.Bool // guards the panic slot: the first panic wins
	pv       any         // the panic slot
}

var jobs = sync.Pool{New: func() any { return new(job) }}

// help runs the claim loop on a fresh goroutine and signals the caller.
func (j *job) help() {
	defer j.wg.Done()
	j.run()
}

// run claims chunks off the shared counter until none is left. The first
// panic goes into the job's slot (the CAS winner writes it; the write
// happens-before the caller's read via the WaitGroup) and ends this
// executor's loop; the others drain the remaining chunks.
func (j *job) run() {
	defer func() {
		if r := recover(); r != nil {
			if j.panicked.CompareAndSwap(false, true) {
				j.pv = r
			}
		}
	}()
	for {
		c := int(j.next.Add(1)) - 1
		if c >= j.nc {
			return
		}
		lo := c * j.chunk
		hi := lo + j.chunk
		if hi > j.n {
			hi = j.n
		}
		j.fn(lo, hi)
	}
}

// ParallelFor runs fn over [0,n) in disjoint contiguous chunks of at least
// grain indices. fn must confine its writes to data indexed by its [lo,hi)
// range and must not touch the simulation runtimes (mpi/vtime/ompss). A
// panic in any chunk is re-raised on the caller after all chunks finish.
// In steady state a call allocates nothing itself (a helper that falls
// back to a fresh goroutine aside); a closure built per call as fn is the
// caller's allocation, since it escapes into the job the helpers share.
func ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	w := Workers()
	if !Enabled() || w <= 1 || n <= grain {
		fn(0, n)
		return
	}
	if Stealing() {
		if sp := sharedPool.Load(); sp != nil && sp.width == w {
			sp.ParallelFor(n, grain, fn)
			return
		}
		// No pool at this width (mid-reconfiguration): the fixed-chunk
		// path below produces bit-identical results, so fall through.
	}
	// Fixed chunking: big enough to respect grain, small enough to give
	// each executor a few chunks for load balance. Boundaries depend only
	// on (n, grain, w).
	chunk := (n + 4*w - 1) / (4 * w)
	if chunk < grain {
		chunk = grain
	}
	nc := (n + chunk - 1) / chunk
	if nc <= 1 {
		fn(0, n)
		return
	}
	poolOnce.Do(startPool)

	j := jobs.Get().(*job)
	j.fn, j.n, j.chunk, j.nc = fn, n, chunk, nc
	j.next.Store(0)
	helpers := w - 1
	if nc-1 < helpers {
		helpers = nc - 1
	}
	j.wg.Add(helpers)
	for i := 0; i < helpers; i++ {
		submit(j)
	}
	j.run()
	j.wg.Wait()
	pv := j.pv
	j.fn, j.pv = nil, nil
	j.panicked.Store(false)
	jobs.Put(j)
	if pv != nil {
		panic(fmt.Sprintf("par: panic in ParallelFor body: %v", pv))
	}
}
