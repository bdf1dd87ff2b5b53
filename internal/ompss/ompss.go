// Package ompss is a task-based parallel runtime in the spirit of
// OmpSs/Nanos++, executing inside the vtime discrete-event simulator. Work
// is a dependency graph built at submission time: every node names its
// predecessor nodes, the runtime counts each node's unmet predecessors
// (successor counting), and a task enqueues on a worker thread — a hardware
// lane of the KNL node model — the moment its count reaches zero. Events
// are body-less nodes of the same graph: completed externally (the arrival
// of an asynchronous scatter) or by their last predecessor (a join), they
// release their successors exactly as tasks do.
//
// This is the substrate for the paper's two optimizations: the per-step
// task version (Figure 4: every FFT step is a task chained to the step
// before it, overlapping communication with computation) and the
// per-iteration task version (Figure 5: every FFT is one task, scheduled
// asynchronously to de-synchronize compute phases and soften resource
// contention).
package ompss

import (
	"fmt"
	"strings"

	"repro/internal/knl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// Worker is the execution context handed to a task body: the simulated
// process of the worker thread and its hardware lane.
type Worker struct {
	Proc *vtime.Proc
	Lane int
	rt   *Runtime
}

// Compute runs a compute phase of the given class and instruction count on
// the worker's lane, recording a trace interval and the per-phase
// compute-time and instruction counters (the live-IPC inputs).
func (w *Worker) Compute(phase string, class knl.Class, instr float64) {
	start := w.Proc.Now()
	w.Proc.Compute(vtime.Job{Work: instr, Class: int(class), Lane: w.Lane})
	end := w.Proc.Now()
	if w.rt.sink != nil && end > start {
		w.rt.sink.Record(trace.Interval{
			Lane: w.Lane, Start: start, End: end,
			Kind: trace.KindCompute, Phase: phase, Class: int(class), Instr: instr,
		})
	}
	pm := w.rt.phaseMetricsFor(phase)
	pm.seconds.Add(end - start)
	pm.instr.Add(instr)
}

// Task is one node of the dependency graph: a schedulable unit of work, or
// an event (no body) that completes externally or with its predecessors.
type Task struct {
	id       int
	label    string
	fn       func(w *Worker) // nil for events
	priority int
	npred    int
	succs    []*Task
	done     bool
	group    *Group           // non-nil for group members
	waiters  *vtime.WaitQueue // processes parked in Wait; built on first use
}

// Runtime is one task runtime instance (one per MPI rank in the kernel).
type Runtime struct {
	eng     *vtime.Engine
	sink    trace.Sink
	lanes   []int
	ready   []*Task
	readyWQ vtime.WaitQueue
	nextID  int
	pending int // incomplete nodes, tasks and events alike
	waitWQ  vtime.WaitQueue
	closed  bool
	tasks   []*Task // all live (not yet completed) nodes, for diagnostics
	nDone   int     // completed nodes still in the tasks slice

	// Overhead is the runtime cost charged per task execution (dependency
	// upkeep and scheduling in Nanos++), recorded as trace.KindRuntime.
	Overhead float64

	// TaskwaitSec accumulates the virtual time this runtime's processes
	// spent blocked in Taskwait — the per-runtime barrier-stall account
	// (the package metric mTaskwaitSec aggregates across runtimes). A
	// schedule whose main process parks on a join event instead of calling
	// Taskwait keeps it at zero.
	TaskwaitSec float64

	// Strict enables runtime invariant checks: Taskwait verifies the
	// dependency graph is acyclic before blocking. The public API cannot
	// create cycles (edges always point from existing nodes to the new
	// one), so a detected cycle means runtime-internal state corruption.
	Strict bool

	// phaseCache holds resolved per-phase metric handles (engine is serial,
	// no locking needed).
	phaseCache map[string]*phaseMetrics
}

// New creates a runtime whose workers run on the given hardware lanes. The
// worker processes are spawned immediately; call Shutdown (usually after a
// final Taskwait) to let them exit. sink receives trace intervals and may
// be nil.
func New(eng *vtime.Engine, sink trace.Sink, lanes []int) *Runtime {
	rt := &Runtime{
		eng:      eng,
		sink:     sink,
		lanes:    lanes,
		Overhead: 3e-6,
	}
	rt.readyWQ.Describe = func() string {
		return fmt.Sprintf("ompss: worker idle (no ready tasks; %d tasks pending)", rt.pending)
	}
	rt.waitWQ.Describe = func() string {
		return fmt.Sprintf("ompss: Taskwait (%d tasks pending: %s)", rt.pending, rt.pendingSummary())
	}
	for i, lane := range lanes {
		lane := lane
		eng.Spawn(fmt.Sprintf("worker%d.lane%d", i, lane), func(p *vtime.Proc) {
			rt.workerLoop(&Worker{Proc: p, Lane: lane, rt: rt})
		})
	}
	return rt
}

// Workers returns the number of worker threads.
func (rt *Runtime) Workers() int { return len(rt.lanes) }

// node creates a graph node depending on every incomplete node of after.
func (rt *Runtime) node(label string, after []*Task) *Task {
	if rt.closed {
		panic("ompss: submit after shutdown")
	}
	t := &Task{id: rt.nextID, label: label}
	rt.nextID++
	rt.pending++
	rt.tasks = append(rt.tasks, t)
	for _, from := range after {
		rt.addEdge(from, t)
	}
	return t
}

// Submit creates a task with the given priority (higher runs first among
// ready tasks) that runs once every node of after has completed; completed
// and nil entries contribute nothing, so with none pending the task is
// ready at once. It must be called from a simulated process.
func (rt *Runtime) Submit(p *vtime.Proc, label string, after []*Task, priority int, fn func(w *Worker)) *Task {
	t := rt.node(label, after)
	t.fn, t.priority = fn, priority
	mTasksCreated.Inc()
	mTasksInFlight.Add(1)
	if t.npred == 0 {
		rt.enqueue(p, t)
	}
	return t
}

// Event creates a body-less node. With predecessors it is a join: it
// completes when the last of them does (at once if they all already have).
// Without any it completes when Complete is called — the dependency-release
// half of asynchronous communication, where a communication thread
// completes the event and so releases the task that consumes the received
// data. Events never occupy a worker and are not counted as tasks by the
// telemetry.
func (rt *Runtime) Event(p *vtime.Proc, label string, after []*Task) *Task {
	ev := rt.node(label, after)
	if len(after) > 0 && ev.npred == 0 {
		rt.complete(p, ev)
	}
	return ev
}

// Complete completes an event that has no predecessors, releasing its
// successors. It must be called from a running simulated process.
// Completing a task, a join or an already completed event panics: each
// means the graph was mis-built, and absorbing it would hide a lost
// release.
func (rt *Runtime) Complete(p *vtime.Proc, ev *Task) {
	if ev.fn != nil || ev.done || ev.npred > 0 {
		panic(fmt.Sprintf("ompss: Complete on %q, which is not a pending external event", ev.label))
	}
	rt.complete(p, ev)
}

// Wait blocks the calling process until the node completes. It is the
// sink-side primitive — a main process parks on the final join while the
// workers drain the graph — not a task-side one: a task body waiting on a
// node occupies a worker that the release chain may need (name the node as
// a predecessor instead).
func (rt *Runtime) Wait(p *vtime.Proc, t *Task) {
	for !t.done {
		if t.waiters == nil {
			t.waiters = &vtime.WaitQueue{Describe: func() string {
				return fmt.Sprintf("ompss: wait on %q (%d unmet deps)", t.label, t.npred)
			}}
		}
		t.waiters.Wait(p)
	}
}

func (rt *Runtime) addEdge(from, to *Task) {
	if from == nil || from.done || from == to {
		return
	}
	// A duplicated predecessor would count twice in npred but release
	// once, so dedupe cheaply.
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
	to.npred++
}

func (rt *Runtime) enqueue(p *vtime.Proc, t *Task) {
	rt.ready = append(rt.ready, t)
	mReadyDepth.Add(1)
	rt.readyWQ.WakeOne(p)
}

// popReadyInGroup removes the best ready task belonging to the group.
func (rt *Runtime) popReadyInGroup(g *Group) *Task {
	best := -1
	for i, t := range rt.ready {
		if t.group != g {
			continue
		}
		if best < 0 || t.priority > rt.ready[best].priority ||
			(t.priority == rt.ready[best].priority && t.id < rt.ready[best].id) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	t := rt.ready[best]
	rt.ready = append(rt.ready[:best], rt.ready[best+1:]...)
	mReadyDepth.Add(-1)
	return t
}

// popReady removes the best ready task: highest priority, then lowest id.
func (rt *Runtime) popReady() *Task {
	best := -1
	for i, t := range rt.ready {
		if best < 0 || t.priority > rt.ready[best].priority ||
			(t.priority == rt.ready[best].priority && t.id < rt.ready[best].id) {
			best = i
		}
	}
	if best < 0 {
		return nil
	}
	t := rt.ready[best]
	rt.ready = append(rt.ready[:best], rt.ready[best+1:]...)
	mReadyDepth.Add(-1)
	return t
}

// runTask executes a claimed task's body, observing its virtual duration,
// and completes it. Shared by the worker loop and inline group execution.
func (rt *Runtime) runTask(w *Worker, t *Task) {
	start := w.Proc.Now()
	t.fn(w)
	mTaskDuration.Observe(w.Proc.Now() - start)
	rt.complete(w.Proc, t)
}

func (rt *Runtime) workerLoop(w *Worker) {
	for {
		idleStart := w.Proc.Now()
		for len(rt.ready) == 0 {
			if rt.closed {
				return
			}
			rt.readyWQ.Wait(w.Proc)
		}
		t := rt.popReady()
		if rt.sink != nil && w.Proc.Now() > idleStart {
			trace.Recorder{S: rt.sink, Lane: w.Lane}.Idle(idleStart, w.Proc.Now())
		}
		if rt.Overhead > 0 {
			ovStart := w.Proc.Now()
			w.Proc.Sleep(rt.Overhead)
			if rt.sink != nil {
				trace.Recorder{S: rt.sink, Lane: w.Lane}.Runtime(ovStart, w.Proc.Now())
			}
		}
		rt.runTask(w, t)
	}
}

// complete marks a node done and releases its successors: a task whose
// last predecessor this was enqueues, an event completes in turn.
func (rt *Runtime) complete(p *vtime.Proc, t *Task) {
	t.done = true
	if t.fn != nil {
		mTasksCompleted.Inc()
		mTasksInFlight.Add(-1)
	}
	for _, s := range t.succs {
		s.npred--
		if s.npred > 0 {
			continue
		}
		if s.fn == nil {
			rt.complete(p, s)
		} else {
			rt.enqueue(p, s)
		}
	}
	rt.pending--
	rt.nDone++
	if rt.nDone > len(rt.tasks)/2 {
		rt.compactTasks()
	}
	if rt.pending == 0 {
		rt.waitWQ.WakeAll(p)
	}
	if t.waiters != nil {
		t.waiters.WakeAll(p)
	}
}

// compactTasks drops completed tasks from the live-task list (amortized
// O(1) per completion via the half-full trigger in complete).
func (rt *Runtime) compactTasks() {
	live := rt.tasks[:0]
	for _, t := range rt.tasks {
		if !t.done {
			live = append(live, t)
		}
	}
	for i := len(live); i < len(rt.tasks); i++ {
		rt.tasks[i] = nil
	}
	rt.tasks = live
	rt.nDone = 0
}

// pendingSummary renders the not-yet-completed tasks with their unmet
// predecessor counts, for deadlock reports. Long lists are truncated.
func (rt *Runtime) pendingSummary() string {
	var sb strings.Builder
	n := 0
	for _, t := range rt.tasks {
		if t.done {
			continue
		}
		if n == 8 {
			sb.WriteString(", ...")
			break
		}
		if n > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "%q (%d unmet deps)", t.label, t.npred)
		n++
	}
	if n == 0 {
		return "none"
	}
	return sb.String()
}

// CheckCycles verifies the live dependency graph is acyclic and returns a
// descriptive error naming the tasks on a cycle otherwise. The public API
// cannot create cycles (edges always point from existing nodes to the new
// one), so a non-nil result indicates corrupted runtime state. In strict
// mode Taskwait runs this check before blocking.
func (rt *Runtime) CheckCycles() error {
	const (
		white = 0 // unvisited
		grey  = 1 // on the current DFS path
		black = 2 // fully explored
	)
	color := map[*Task]int{}
	var path []*Task
	var visit func(t *Task) []*Task
	visit = func(t *Task) []*Task {
		color[t] = grey
		path = append(path, t)
		for _, s := range t.succs {
			if s.done {
				continue
			}
			switch color[s] {
			case white:
				if cyc := visit(s); cyc != nil {
					return cyc
				}
			case grey:
				for i, p := range path {
					if p == s {
						return path[i:]
					}
				}
			}
		}
		color[t] = black
		path = path[:len(path)-1]
		return nil
	}
	for _, t := range rt.tasks {
		if t.done || color[t] != white {
			continue
		}
		if cyc := visit(t); cyc != nil {
			var sb strings.Builder
			for _, c := range cyc {
				fmt.Fprintf(&sb, "%q -> ", c.label)
			}
			fmt.Fprintf(&sb, "%q", cyc[0].label)
			return fmt.Errorf("ompss: dependency cycle among %d tasks: %s", len(cyc), sb.String())
		}
	}
	return nil
}

// Taskwait blocks the calling process until every submitted task and event
// has completed. In strict mode it first verifies the dependency graph is
// acyclic, panicking with the cycle (which the vtime engine converts into a
// structured Run error) instead of blocking forever.
func (rt *Runtime) Taskwait(p *vtime.Proc) {
	if rt.Strict && rt.pending > 0 {
		if err := rt.CheckCycles(); err != nil {
			panic(err.Error())
		}
	}
	if rt.pending > 0 {
		mTaskwaitStalls.Inc()
		start := p.Now()
		for rt.pending > 0 {
			rt.waitWQ.Wait(p)
		}
		stall := p.Now() - start
		mTaskwaitSec.Add(stall)
		rt.TaskwaitSec += stall
	}
}

// Shutdown lets the worker processes exit once the ready queue drains. Call
// after the final Taskwait or join.
func (rt *Runtime) Shutdown(p *vtime.Proc) {
	if rt.pending > 0 {
		panic("ompss: shutdown with pending tasks")
	}
	rt.closed = true
	rt.readyWQ.WakeAll(p)
}
