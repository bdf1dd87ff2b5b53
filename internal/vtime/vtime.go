// Package vtime implements a deterministic discrete-event simulation (DES)
// engine with cooperative processes and processor-sharing compute resources.
//
// Simulated processes run one at a time, so shared simulation state needs no
// locking and every run is fully deterministic. A process advances virtual
// time by sleeping, by blocking on a synchronization primitive until another
// process wakes it, or by executing a compute Job on a Machine. Jobs progress
// at rates set by the Machine, which models processor sharing and resource
// contention; after the set of active jobs changes, the rates are
// re-evaluated once, before the clock next advances.
//
// A process is a state machine (Spawn): the engine resumes it by calling its
// Resume method, and Sleep, Block, Park and Compute book its wake-up and
// return at once, after which Resume returns too; the process keeps its
// state in its own struct between turns and reads the clock when it next
// runs. Run is a plain loop on the caller's goroutine: it takes a step,
// which picks the one process to resume, and calls it, so a run starts no
// goroutine.
//
// The engine is the substrate for the simulated MPI library
// (internal/mpi), the OmpSs-like task runtime (internal/ompss) and the KNL
// node model (internal/knl).
package vtime

import (
	"fmt"
	"math"
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
// active. The engine calls it before the clock advances, if the set has
// changed (a job started or finished) since the last call, so the rates must
// be a function of the ordered job list alone. Implementations must set a
// finite Rate > 0 for every job; any other rate ends Run with an error.
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

// Resumer is the body of a process. The engine calls Resume each
// time it dispatches the process: Resume runs one turn and returns, either
// after booking exactly one suspension — a Sleep, Block, Park or Compute that
// suspends — or, having booked none, to end the process.
type Resumer interface {
	Resume(p *Proc)
}

// ResumeFunc adapts a function to Resumer.
type ResumeFunc func(p *Proc)

// Resume calls f.
func (f ResumeFunc) Resume(p *Proc) { f(p) }

// Proc is a simulated process. All methods must be called from within the
// process's own body, its Resume method.
type Proc struct {
	_         NoCopy
	eng       *Engine
	name      string
	id        int
	state     procState
	body      Resumer
	blockedAt Time
	waitDesc  func() string // what the process waits on, for deadlock dumps
	job       ActiveJob     // the in-flight job of Compute; at most one per process

	// Telemetry handle resolved once at Spawn so the hot path below pays
	// only an atomic add, never a label lookup.
	blockCtr *metrics.Counter
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
	_       NoCopy
	now     Time
	seq     uint64
	events  eventHeap
	jobs    []*ActiveJob
	machine Machine
	// ratesDirty is set when the job set changes; the next step that must
	// advance the clock has the machine refresh the rates first.
	ratesDirty bool
	procs      []*Proc
	running    *Proc // the process step dispatched last; the only one that may suspend
	nAlive     int
	nBlocked   int
	stats      Stats
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
	return &Engine{machine: m}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Spawn registers a new process resumed through r. Processes spawned
// before Run start at time 0; processes spawned by a running process start
// at the current virtual time, after the spawning process's turn.
func (e *Engine) Spawn(name string, r Resumer) *Proc {
	rm := roleMetricsOf(name)
	p := &Proc{
		eng:      e,
		name:     name,
		id:       len(e.procs),
		state:    stateNew,
		body:     r,
		blockCtr: rm.block,
	}
	e.stats.ProcsSpawned++
	rm.spawned.Inc()
	e.procs = append(e.procs, p)
	e.nAlive++
	e.schedule(p, e.now)
	return p
}

// end marks a process whose body has returned done.
func (p *Proc) end() {
	p.state = stateDone
	p.eng.nAlive--
}

// panicked ends a process whose body panicked with r and returns the error
// that ends the run.
func (p *Proc) panicked(r any) error {
	if p.state == stateBlocked {
		// The panic came after the process booked a block.
		mProcsBlocked.Add(-1)
	}
	p.end()
	return fmt.Errorf("vtime: process %q panicked at t=%g: %v", p.name, p.eng.now, r)
}

// call runs one turn of process p: a process that returns without booking
// a suspension has ended, and a panic of its body becomes the run's error.
func (e *Engine) call(p *Proc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = p.panicked(r)
		}
	}()
	p.body.Resume(p)
	if p.state == stateRunning {
		p.end()
	}
	return nil
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
	p.waitDesc = nil
	e.schedule(p, e.now)
}

// Run executes the simulation until every process has finished or parked:
// it takes a step, calls the process the step picks, and repeats. Run
// returns a *DeadlockError on deadlock (blocked processes remain but no
// event or job can make progress) and an error describing the panic if a
// process body panics. On every return the processes that did not finish —
// parked, blocked or never started — are done.
func (e *Engine) Run() error {
	defer e.release()
	for {
		next, err := e.step()
		if err != nil || next == nil {
			return err
		}
		if err := e.call(next); err != nil {
			return err
		}
	}
}

// release marks every process that has not finished done.
func (e *Engine) release() {
	for _, p := range e.procs {
		if p.state == stateBlocked {
			mProcsBlocked.Add(-1)
		}
		p.state = stateDone
	}
	e.nAlive, e.nBlocked = 0, 0
	e.events, e.jobs = e.events[:0], e.jobs[:0]
}

// step advances the simulation by one event: it finds the next wake-up or
// job completion, advances the clock, and returns the one process to
// dispatch, or nil when no process is alive.
func (e *Engine) step() (*Proc, error) {
	if e.nAlive == 0 {
		return nil, nil
	}
	var next *Proc
	if len(e.events) > 0 && e.events[0].at <= e.now {
		// An event due now wins every tie with a job completion (a job
		// wins only strictly earlier, below), so neither the rates nor
		// the completion scan can change the answer.
		next = e.events.pop().proc
	} else {
		if e.ratesDirty {
			e.refreshRates()
		}
		// Earliest job completion. The scan also checks the rates the
		// machine set: an invalid one ends Run with an error naming the
		// first such job's lane and class.
		jobAt := Time(math.Inf(1))
		var jobDone *ActiveJob
		for _, j := range e.jobs {
			if !(j.Rate > 0 && j.Rate <= math.MaxFloat64) {
				return nil, fmt.Errorf("vtime: machine set invalid rate %v for lane %d class %d at t=%g", j.Rate, j.Lane, j.Class, e.now)
			}
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
			return nil, e.deadlockError()
		}
		if jobAt < evAt {
			e.advanceJobs(jobAt - e.now)
			e.now = jobAt
			e.removeJob(jobDone)
			e.stats.JobsCompleted++
			mJobsCompleted.Inc()
			next = jobDone.proc
		} else {
			ev := e.events.pop()
			e.advanceJobs(ev.at - e.now)
			e.now = ev.at
			next = ev.proc
		}
	}
	e.stats.Steps++
	mSteps.Inc()
	next.state = stateRunning
	e.running = next
	return next, nil
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
	e.ratesDirty = true
}

func (e *Engine) removeJob(j *ActiveJob) {
	for i, k := range e.jobs {
		if k == j {
			e.jobs = append(e.jobs[:i], e.jobs[i+1:]...)
			e.ratesDirty = true
			return
		}
	}
	panic("vtime: removeJob: job not active")
}

// refreshRates has the machine rate the active jobs. The completion scan
// that follows every refresh in step checks the rates.
func (e *Engine) refreshRates() {
	e.ratesDirty = false
	if len(e.jobs) == 0 {
		return
	}
	e.stats.RateUpdates++
	e.machine.Rates(e.jobs)
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

// --- Proc API (called from inside process bodies) ---

// Name returns the process name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the process's engine-unique id.
func (p *Proc) ID() int { return p.id }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine the process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Suspended reports whether the process has booked a suspension in its
// current turn: a Sleep, Block, Park or Compute that suspends it. Code that
// may suspend checks it after every such call and returns to its caller
// when it is true, to be called again when the process next runs.
func (p *Proc) Suspended() bool { return p.state != stateRunning }

// enter checks that the process may suspend: only the running process may —
// a process that sleeps, blocks or computes on behalf of another, such as a
// task body waiting through a context captured from outside it, panics
// here, inside the running process, which Run reports as a structured error
// naming both processes — and only once per turn.
func (p *Proc) enter() {
	e := p.eng
	if r := e.running; r != p {
		if r == nil {
			panic(fmt.Sprintf("vtime: process %q blocked outside Run", p.name))
		}
		panic(fmt.Sprintf("vtime: process %q blocked while process %q was running; a process may only block itself", p.name, r.name))
	}
	if p.state != stateRunning {
		panic(fmt.Sprintf("vtime: process %q suspended twice in one turn; a process returns from Resume after each suspension", p.name))
	}
}

// Sleep advances the process's clock by d seconds of virtual time.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("vtime: negative sleep")
	}
	p.enter()
	p.eng.schedule(p, p.eng.now+d)
}

// Block suspends the process until another process wakes it via Wake.
func (p *Proc) Block() {
	p.enter()
	p.state = stateBlocked
	p.blockedAt = p.eng.now
	p.eng.nBlocked++
	mProcsBlocked.Add(1)
	// Deadlock near-miss gauge: the high-water fraction of live processes
	// simultaneously blocked. 1.0 would be a full deadlock.
	if p.eng.nAlive > 0 {
		mBlockedFrac.SetMax(float64(p.eng.nBlocked) / float64(p.eng.nAlive))
	}
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
	p.enter()
	p.state = stateParked
	p.eng.nAlive--
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

// Compute starts a compute job and suspends the process until it completes
// under the engine's Machine; the process reads the clock when it next
// runs. Zero-work jobs complete immediately without consulting the machine,
// and suspend no process.
func (p *Proc) Compute(job Job) {
	if job.Work < 0 {
		panic("vtime: negative work")
	}
	if job.Work == 0 {
		return
	}
	p.enter()
	e := p.eng
	e.seq++
	// The engine removes the job before it resumes the process, so the
	// process's one job slot is free again by the next Compute.
	aj := &p.job
	*aj = ActiveJob{Job: job, Remaining: job.Work, proc: p, seq: e.seq}
	e.addJob(aj)
	p.state = stateComputing
}
