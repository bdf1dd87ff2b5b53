// Package vtime implements a deterministic discrete-event simulation (DES)
// engine with cooperative processes and processor-sharing compute resources.
//
// Simulated processes are goroutines that run one at a time under the control
// of the engine, so shared simulation state needs no locking and every run is
// fully deterministic. A process advances virtual time by sleeping, by
// blocking on a synchronization primitive until another process wakes it, or
// by executing a compute Job on a Machine. Jobs progress at rates set by the
// Machine, and the rates are re-evaluated whenever the set of active jobs
// changes, which models processor sharing and resource contention.
//
// The engine is the substrate for the simulated MPI library
// (internal/mpi), the OmpSs-like task runtime (internal/ompss) and the KNL
// node model (internal/knl).
package vtime

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Time is virtual time in seconds.
type Time = float64

// Job describes a unit of compute work submitted to a Machine.
// Work is in abstract units (the KNL model uses instructions); Class and
// Lane let the Machine decide the execution rate.
type Job struct {
	Work  float64 // total work units, must be >= 0
	Class int     // machine-defined intensity class
	Lane  int     // hardware lane (thread slot) executing the job
}

// ActiveJob is a Job in flight. The Machine sets Rate (work units per
// second); the engine decrements Remaining as time advances.
type ActiveJob struct {
	Job
	Remaining float64
	Rate      float64
	proc      *Proc
	seq       uint64
}

// Machine decides execution rates for the set of jobs that are currently
// active. It is called whenever the set changes (a job starts or finishes).
// Implementations must set Rate > 0 for every job.
type Machine interface {
	Rates(jobs []*ActiveJob)
}

// UnitMachine is the trivial Machine: every job runs at rate 1 regardless of
// contention. It is useful for tests and for cost-model-free simulations.
type UnitMachine struct{}

// Rates implements Machine.
func (UnitMachine) Rates(jobs []*ActiveJob) {
	for _, j := range jobs {
		j.Rate = 1
	}
}

// NoCopy is the first field, "_ vtime.NoCopy", of every handle type of the
// simulated runtimes (Engine, Proc, the synchronization primitives, the
// mpi World, Ctx and Comm, the ompss Runtime, Group and Task). Handles
// carry identity and mutable state — wait queues, rendezvous maps,
// dependency graphs — so a copy silently forks that state. Its pointer has
// Lock and Unlock, so go vet's copylocks check reports every by-value copy
// of a type that contains it. It is zero-size and, as a first field, adds
// no padding.
type NoCopy struct{}

// Lock is a no-op that makes go vet treat NoCopy as a lock.
func (*NoCopy) Lock() {}

// Unlock is a no-op that makes go vet treat NoCopy as a lock.
func (*NoCopy) Unlock() {}

type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateBlocked
	stateComputing
	stateParked
	stateDone
)

// Proc is a simulated process. All methods must be called from within the
// process's own body function.
type Proc struct {
	_         NoCopy
	eng       *Engine
	name      string
	id        int
	state     procState
	resume    chan struct{}
	seq       uint64 // sequence number for deterministic tie-breaking
	blockedAt Time
	waitDesc  func() string // what the process waits on, for deadlock dumps
	panicVal  any           // recovered panic of the process body, if any
	job       ActiveJob     // the in-flight job of Compute; at most one per process

	// Telemetry handles resolved once at Spawn so the hot paths below pay
	// only an atomic add, never a label lookup.
	blockCtr *metrics.Counter
	runCtr   *metrics.Counter
}

// event is a scheduled wake-up for a process.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) push(e event) { *h = append(*h, e); h.up(len(*h) - 1) }
func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	if n > 0 {
		h.down(0)
	}
	return top
}
func (h eventHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.Less(i, p) {
			break
		}
		h.Swap(i, p)
		i = p
	}
}
func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h.Less(l, m) {
			m = l
		}
		if r < n && h.Less(r, m) {
			m = r
		}
		if m == i {
			return
		}
		h.Swap(i, m)
		i = m
	}
}

// Engine is the discrete-event simulator. Create with NewEngine, spawn
// processes with Spawn, then call Run.
type Engine struct {
	_        NoCopy
	now      Time
	seq      uint64
	events   eventHeap
	jobs     []*ActiveJob
	machine  Machine
	procs    []*Proc
	running  *Proc // the process step dispatched last; the only one that may yield
	yieldCh  chan *Proc
	nAlive   int
	nBlocked int
	// releasing is set while Run unwinds the goroutines of the processes
	// that did not finish: a process resumed then exits instead of running.
	releasing bool
	err       error
	stats     Stats
}

// Stats reports engine activity counters, for tests and diagnostics.
type Stats struct {
	// Steps is the number of dispatch steps executed.
	Steps uint64
	// JobsCompleted is the number of compute jobs driven to completion.
	JobsCompleted uint64
	// ProcsSpawned is the number of processes ever created.
	ProcsSpawned uint64
	// RateUpdates counts Machine.Rates invocations.
	RateUpdates uint64
}

// Stats returns a snapshot of the engine's activity counters.
func (e *Engine) Stats() Stats { return e.stats }

// NewEngine returns an engine using the given Machine for compute jobs.
// A nil machine defaults to UnitMachine.
func NewEngine(m Machine) *Engine {
	if m == nil {
		m = UnitMachine{}
	}
	return &Engine{
		machine: m,
		yieldCh: make(chan *Proc),
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Spawn registers a new process executing fn. Processes spawned before Run
// start at time 0; processes spawned by a running process start at the
// current virtual time, after the spawning process yields.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	role := procRole(name)
	p := &Proc{
		eng:      e,
		name:     name,
		id:       len(e.procs),
		state:    stateNew,
		resume:   make(chan struct{}),
		blockCtr: mBlockSeconds.With(role),
		runCtr:   mRunSeconds.With(role),
	}
	e.stats.ProcsSpawned++
	mProcsSpawned.With(role).Inc()
	e.procs = append(e.procs, p)
	e.nAlive++
	e.schedule(p, e.now)
	go func() {
		// A panic inside a process body would otherwise kill its goroutine
		// while the engine waits on yieldCh forever — a silent host-level
		// hang. Convert it into a structured engine error instead. The
		// same hand-back acknowledges a release (see Run).
		defer func() {
			if r := recover(); r != nil {
				p.panicVal = r
			}
			p.state = stateDone
			e.yieldCh <- p
		}()
		<-p.resume // wait for first dispatch
		if e.releasing {
			return
		}
		fn(p)
	}()
	return p
}

func (e *Engine) schedule(p *Proc, at Time) {
	e.seq++
	p.state = stateRunnable
	e.events.push(event{at: at, seq: e.seq, proc: p})
}

// wake moves a blocked process to runnable at the current time. It is used
// by synchronization primitives. Waking an already-runnable or running
// process panics: that indicates a bug in the caller.
func (e *Engine) wake(p *Proc) {
	if p.state != stateBlocked {
		panic(fmt.Sprintf("vtime: wake of proc %q in state %d", p.name, p.state))
	}
	e.nBlocked--
	mProcsBlocked.Add(-1)
	p.blockCtr.Add(e.now - p.blockedAt)
	e.schedule(p, e.now)
}

// Run executes the simulation until every process has finished or parked.
// It returns a *DeadlockError on deadlock (blocked processes remain but no
// event or job can make progress) and an error describing the panic if a
// process body panics. On every return it releases the goroutines of the
// processes that did not finish — parked, blocked or never started — so a
// run leaves no goroutine behind; those processes are done afterwards.
func (e *Engine) Run() error {
	defer e.release()
	for e.nAlive > 0 {
		if err := e.step(); err != nil {
			e.err = err
			return err
		}
	}
	return nil
}

// release ends every process that has not finished. Each one waits for a
// resume, in yield or before its first dispatch; resumed while releasing,
// it exits, and its goroutine's hand-back on yieldCh acknowledges that,
// one process at a time, so no body code runs beside the caller of Run.
func (e *Engine) release() {
	e.releasing = true
	for _, p := range e.procs {
		if p.state == stateDone {
			continue
		}
		if p.state == stateBlocked {
			mProcsBlocked.Add(-1)
		}
		p.resume <- struct{}{}
		<-e.yieldCh
	}
	e.releasing = false
	e.nAlive, e.nBlocked = 0, 0
	e.events, e.jobs = e.events[:0], e.jobs[:0]
}

// MustRun is Run for callers without an error path: a deadlock or process
// panic becomes a host panic carrying the structured report.
func (e *Engine) MustRun() {
	if err := e.Run(); err != nil {
		panic(err)
	}
}

// step advances the simulation by one event: it finds the next wake-up or
// job completion, advances the clock, and dispatches exactly one process.
func (e *Engine) step() error {
	// Earliest job completion.
	jobAt := Time(math.Inf(1))
	var jobDone *ActiveJob
	for _, j := range e.jobs {
		t := e.now + j.Remaining/j.Rate
		if t < jobAt || (t == jobAt && jobDone != nil && j.seq < jobDone.seq) {
			jobAt = t
			jobDone = j
		}
	}
	evAt := Time(math.Inf(1))
	if len(e.events) > 0 {
		evAt = e.events[0].at
	}
	if math.IsInf(evAt, 1) && math.IsInf(jobAt, 1) {
		return e.deadlockError()
	}

	e.stats.Steps++
	mSteps.Inc()
	var next *Proc
	if jobAt < evAt {
		e.advanceJobs(jobAt - e.now)
		e.now = jobAt
		e.removeJob(jobDone)
		e.stats.JobsCompleted++
		mJobsCompleted.Inc()
		jobDone.proc.state = stateRunnable
		next = jobDone.proc
	} else {
		ev := e.events.pop()
		e.advanceJobs(ev.at - e.now)
		e.now = ev.at
		next = ev.proc
	}

	next.state = stateRunning
	e.running = next
	next.resume <- struct{}{}
	<-e.yieldCh // only next yields: Proc.yield rejects any other process
	switch next.state {
	case stateParked:
		e.nAlive--
	case stateDone:
		e.nAlive--
		if next.panicVal != nil {
			return fmt.Errorf("vtime: process %q panicked at t=%g: %v", next.name, e.now, next.panicVal)
		}
	}
	return nil
}

func (e *Engine) advanceJobs(dt Time) {
	if dt < 0 {
		panic("vtime: time went backwards")
	}
	if dt == 0 {
		return
	}
	for _, j := range e.jobs {
		j.Remaining -= j.Rate * dt
		if j.Remaining < 0 {
			// Floating-point slop only; clamp.
			j.Remaining = 0
		}
	}
}

func (e *Engine) addJob(j *ActiveJob) {
	e.jobs = append(e.jobs, j)
	e.refreshRates()
}

func (e *Engine) removeJob(j *ActiveJob) {
	for i, k := range e.jobs {
		if k == j {
			e.jobs = append(e.jobs[:i], e.jobs[i+1:]...)
			e.refreshRates()
			return
		}
	}
	panic("vtime: removeJob: job not active")
}

func (e *Engine) refreshRates() {
	if len(e.jobs) == 0 {
		return
	}
	e.stats.RateUpdates++
	e.machine.Rates(e.jobs)
	for _, j := range e.jobs {
		if !(j.Rate > 0) || math.IsInf(j.Rate, 0) || math.IsNaN(j.Rate) {
			panic(fmt.Sprintf("vtime: machine set invalid rate %v for lane %d class %d", j.Rate, j.Lane, j.Class))
		}
	}
}

// BlockedProc describes one blocked process in a deadlock report.
type BlockedProc struct {
	Name      string
	ID        int
	Since     Time   // virtual time the process blocked at
	WaitingOn string // what the process waits on, if known
}

// DeadlockError is returned by Run when the event queue drains while
// processes are still blocked. Instead of a bare process list it carries a
// structured dump of every blocked process — who it is, since when it has
// been blocked and what it is waiting on — so mismatched collectives and
// dependency stalls are diagnosable from the error alone.
type DeadlockError struct {
	At      Time
	Blocked []BlockedProc
}

// Error renders the structured per-process dump.
func (e *DeadlockError) Error() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "vtime: deadlock at t=%g: %d blocked processes:", e.At, len(e.Blocked))
	for _, b := range e.Blocked {
		fmt.Fprintf(&sb, "\n  %s (id %d, blocked since t=%g): %s", b.Name, b.ID, b.Since, b.WaitingOn)
	}
	return sb.String()
}

func (e *Engine) deadlockError() error {
	mDeadlocks.Inc()
	de := &DeadlockError{At: e.now}
	for _, p := range e.procs {
		if p.state != stateBlocked {
			continue
		}
		what := "unknown (Block without a wait description)"
		if p.waitDesc != nil {
			what = p.waitDesc()
		}
		de.Blocked = append(de.Blocked, BlockedProc{
			Name: p.name, ID: p.id, Since: p.blockedAt, WaitingOn: what,
		})
	}
	sort.Slice(de.Blocked, func(i, j int) bool { return de.Blocked[i].Name < de.Blocked[j].Name })
	return de
}

// ActiveJobs returns the jobs currently in flight. Intended for Machine
// implementations and tests.
func (e *Engine) ActiveJobs() []*ActiveJob { return e.jobs }

// --- Proc API (called from inside process bodies) ---

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's engine-unique id.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// yield hands control back to the engine and waits to be resumed. Only the
// running process may yield: a process that sleeps, blocks or computes on
// behalf of another — a task body waiting through a context captured from
// outside it — panics here, inside the running process, which Run reports
// as a structured error naming both processes.
func (p *Proc) yield() {
	if r := p.eng.running; r != p {
		if r == nil {
			panic(fmt.Sprintf("vtime: process %q blocked outside Run", p.name))
		}
		panic(fmt.Sprintf("vtime: process %q blocked while process %q was running; a process may only block itself", p.name, r.name))
	}
	p.eng.yieldCh <- p
	<-p.resume
	if p.eng.releasing {
		runtime.Goexit()
	}
}

// Sleep advances the process's clock by d seconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("vtime: negative sleep")
	}
	p.eng.schedule(p, p.eng.now+d)
	p.yield()
	p.state = stateRunning
}

// Yield reschedules the process at the current time, after all processes
// already runnable at this time.
func (p *Proc) Yield() { p.Sleep(0) }

// Block suspends the process until another process wakes it via Wake.
func (p *Proc) Block() {
	p.state = stateBlocked
	p.blockedAt = p.eng.now
	p.eng.nBlocked++
	mProcsBlocked.Add(1)
	// Deadlock near-miss gauge: the high-water fraction of live processes
	// simultaneously blocked. 1.0 would be a full deadlock.
	if p.eng.nAlive > 0 {
		mBlockedFrac.SetMax(float64(p.eng.nBlocked) / float64(p.eng.nAlive))
	}
	p.yield()
	p.state = stateRunning
	p.waitDesc = nil
}

// BlockOn is Block with a description of what the process is waiting on.
// The closure is evaluated lazily, only if the process appears in a
// deadlock report, so it may render live state (e.g. which collective
// participants have arrived so far).
func (p *Proc) BlockOn(describe func() string) {
	p.waitDesc = describe
	p.Block()
}

// Park suspends the running process without ending it, until Unpark: a
// parked process is neither alive nor blocked, so it keeps no Run going and
// appears in no deadlock report. Reusable helper processes park between
// the jobs they carry out.
func (p *Proc) Park() {
	p.state = stateParked
	p.yield()
	p.state = stateRunning
}

// Unpark makes a parked process runnable at the current virtual time with
// the sequence number Spawn would give a new process, so handing work to a
// parked process instead of spawning one leaves the event order unchanged.
// It must be called from a running process (or before Run).
func (e *Engine) Unpark(p *Proc) {
	if p.state != stateParked {
		panic(fmt.Sprintf("vtime: unpark of proc %q in state %d", p.name, p.state))
	}
	e.nAlive++
	e.schedule(p, e.now)
}

// Wake makes a blocked process runnable at the current virtual time.
// It must be called from a running process (or before Run).
func (p *Proc) Wake(other *Proc) {
	p.eng.wake(other)
}

// Compute executes a compute job and blocks until it completes under the
// engine's Machine. Zero-work jobs complete immediately without consulting
// the machine. It returns the virtual-time duration the job took.
func (p *Proc) Compute(job Job) Time {
	if job.Work < 0 {
		panic("vtime: negative work")
	}
	if job.Work == 0 {
		return 0
	}
	start := p.eng.now
	p.eng.seq++
	// The engine removes the job before it resumes the process, so the
	// process's one job slot is free again by the next Compute.
	aj := &p.job
	*aj = ActiveJob{Job: job, Remaining: job.Work, proc: p, seq: p.eng.seq}
	p.eng.addJob(aj)
	p.state = stateComputing
	p.yield()
	p.state = stateRunning
	d := p.eng.now - start
	p.runCtr.Add(d)
	return d
}
