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
	"slices"
	"strconv"
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
	task *Task // the task whose body runs on the worker
}

// Running returns the name of the task whose body runs on the worker: a
// body shared by many tasks reads its Seq and Unit to learn which one.
func (w *Worker) Running() Name {
	t := w.task
	return Name{Text: t.label, Seq: t.seq, Unit: t.unit}
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
	pm := phaseHandles.Get(phase, newPhaseMetrics)
	pm.seconds.Add(end - start)
	pm.instr.Add(instr)
}

// Name is a node's name kept in parts, so naming a node allocates
// nothing: it prints as Text followed by Seq in decimal, and only when a
// deadlock report or CheckCycles error prints it. Unit is not printed;
// with Seq it tells a body shared by many tasks which task it runs (see
// Worker.Running).
type Name struct {
	Text      string
	Seq, Unit int
}

// Task is one node of the dependency graph: a schedulable unit of work, or
// an event (no body) that completes externally or with its predecessors.
type Task struct {
	_     vtime.NoCopy
	id    int
	label string
	// seq and unit are a numbered node's Name; seq prints after the label
	// when numbered is set.
	seq, unit int
	numbered  bool
	// lo and hi are a loop chunk's range, printed as [lo:hi] when hi > lo.
	lo, hi   int
	fn       func(w *Worker) // nil for events
	priority int
	npred    int
	// succ is the first successor, kept inline because the chain graphs
	// of the kernel have one per node; succs holds any further ones.
	succ    *Task
	succs   []*Task
	done    bool
	group   *Group           // non-nil for group members
	waiters *vtime.WaitQueue // processes parked in Wait; built on first use
}

// name renders the node's name for a report.
func (t *Task) name() string {
	b := []byte(t.label)
	if t.numbered {
		b = strconv.AppendInt(b, int64(t.seq), 10)
	}
	if t.hi > t.lo {
		b = fmt.Appendf(b, "[%d:%d]", t.lo, t.hi)
	}
	return string(b)
}

// Runtime is one task runtime instance (one per MPI rank in the kernel).
type Runtime struct {
	_       vtime.NoCopy
	eng     *vtime.Engine
	sink    *trace.Trace
	lanes   []int
	ready   []*Task
	readyWQ vtime.WaitQueue
	nextID  int
	pending int // incomplete nodes, tasks and events alike
	waitWQ  vtime.WaitQueue
	closed  bool
	worker0 int     // process ID of worker 0; the workers' IDs are consecutive
	tasks   []*Task // all live (not yet completed) nodes, for diagnostics
	nDone   int     // completed nodes still in the tasks slice
	// slab holds the nodes Reserve made room for; node takes them in turn
	// and allocates one by one only past its end.
	slab []Task

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
}

// New creates a runtime whose workers run on the given hardware lanes. The
// worker processes are spawned immediately; call Shutdown (usually after a
// final Taskwait) to let them exit. sink receives trace intervals and may
// be nil.
func New(eng *vtime.Engine, sink *trace.Trace, lanes []int) *Runtime {
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
		p := eng.Spawn(fmt.Sprintf("worker%d.lane%d", i, lane), func(p *vtime.Proc) {
			rt.workerLoop(&Worker{Proc: p, Lane: lane, rt: rt})
		})
		if i == 0 {
			rt.worker0 = p.ID()
		}
	}
	return rt
}

// Workers returns the number of worker threads.
func (rt *Runtime) Workers() int { return len(rt.lanes) }

// Reserve makes room for n more nodes, so a caller that knows its graph's
// size before submitting it pays one allocation instead of one per node.
func (rt *Runtime) Reserve(n int) {
	rt.slab = make([]Task, n)
	rt.tasks = slices.Grow(rt.tasks, n)
}

// node creates a graph node depending on every incomplete node of after.
func (rt *Runtime) node(label string, after []*Task) *Task {
	if rt.closed {
		panic("ompss: submit after shutdown")
	}
	var t *Task
	if len(rt.slab) > 0 {
		t, rt.slab = &rt.slab[0], rt.slab[1:]
	} else {
		t = new(Task)
	}
	t.id, t.label = rt.nextID, label
	rt.nextID++
	rt.pending++
	rt.tasks = append(rt.tasks, t)
	for _, from := range after {
		rt.addEdge(from, t)
	}
	return t
}

// numbered creates a graph node named n.
func (rt *Runtime) numbered(n Name, after []*Task) *Task {
	t := rt.node(n.Text, after)
	t.seq, t.unit, t.numbered = n.Seq, n.Unit, true
	return t
}

// Submit creates a task with the given priority (higher runs first among
// ready tasks) that runs once every node of after has completed; completed
// and nil entries contribute nothing, so with none pending the task is
// ready at once. It must be called from a simulated process.
func (rt *Runtime) Submit(p *vtime.Proc, label string, after []*Task, priority int, fn func(w *Worker)) *Task {
	return rt.submit(p, rt.node(label, after), priority, fn)
}

// SubmitNamed is Submit for a task named n.
func (rt *Runtime) SubmitNamed(p *vtime.Proc, n Name, after []*Task, priority int, fn func(w *Worker)) *Task {
	return rt.submit(p, rt.numbered(n, after), priority, fn)
}

// submit makes node t a task and enqueues it if it is ready.
func (rt *Runtime) submit(p *vtime.Proc, t *Task, priority int, fn func(w *Worker)) *Task {
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
	return rt.event(p, rt.node(label, after), len(after) > 0)
}

// EventNamed is Event for an event named n.
func (rt *Runtime) EventNamed(p *vtime.Proc, n Name, after []*Task) *Task {
	return rt.event(p, rt.numbered(n, after), len(after) > 0)
}

// event completes a join whose predecessors have all completed already.
func (rt *Runtime) event(p *vtime.Proc, ev *Task, join bool) *Task {
	if join && ev.npred == 0 {
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
		panic(fmt.Sprintf("ompss: Complete on %q, which is not a pending external event", ev.name()))
	}
	rt.complete(p, ev)
}

// Wait blocks the calling process until the node completes. It is the
// sink-side primitive — a main process parks on the final join while the
// workers drain the graph — not a task-side one: a task body waiting on a
// node occupies a worker that the release chain may need (name the node as
// a predecessor instead), so a call from one of the runtime's workers
// panics.
func (rt *Runtime) Wait(p *vtime.Proc, t *Task) {
	rt.notWorker(p, "Wait")
	for !t.done {
		if t.waiters == nil {
			t.waiters = &vtime.WaitQueue{Describe: func() string {
				return fmt.Sprintf("ompss: wait on %q (%d unmet deps)", t.name(), t.npred)
			}}
		}
		t.waiters.Wait(p)
	}
}

// notWorker panics, inside the simulated process, when p is one of the
// runtime's own worker threads: a task body parked in Taskwait or Wait holds
// the lane that the tasks it waits for may need. Group.Wait is the
// lane-aware wait for a task body.
func (rt *Runtime) notWorker(p *vtime.Proc, op string) {
	if i := p.ID() - rt.worker0; i >= 0 && i < len(rt.lanes) {
		panic(fmt.Sprintf("ompss: %s called from worker %q; a task body waits with Group.Wait or names the node as a predecessor", op, p.Name()))
	}
}

func (rt *Runtime) addEdge(from, to *Task) {
	if from == nil || from.done || from == to {
		return
	}
	// A duplicated predecessor would count twice in npred but release
	// once, so dedupe cheaply.
	if from.succ == to || slices.Contains(from.succs, to) {
		return
	}
	if from.succ == nil {
		from.succ = to
	} else {
		from.succs = append(from.succs, to)
	}
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
	outer := w.task
	w.task = t
	t.fn(w)
	w.task = outer
	if g := t.group; g != nil {
		g.pending--
		if g.pending == 0 {
			g.wq.WakeAll(w.Proc)
		}
	}
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

// complete marks a node done and releases its successors.
func (rt *Runtime) complete(p *vtime.Proc, t *Task) {
	t.done = true
	if t.fn != nil {
		mTasksCompleted.Inc()
		mTasksInFlight.Add(-1)
	}
	if t.succ != nil {
		rt.release(p, t.succ)
	}
	for _, s := range t.succs {
		rt.release(p, s)
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

// release counts off one completed predecessor of s: a task whose last
// predecessor this was enqueues, an event completes in turn.
func (rt *Runtime) release(p *vtime.Proc, s *Task) {
	s.npred--
	if s.npred > 0 {
		return
	}
	if s.fn == nil {
		rt.complete(p, s)
	} else {
		rt.enqueue(p, s)
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
		fmt.Fprintf(&sb, "%q (%d unmet deps)", t.name(), t.npred)
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
		succs := t.succs
		if t.succ != nil {
			succs = append([]*Task{t.succ}, succs...)
		}
		for _, s := range succs {
			if s.done {
				continue
			}
			switch color[s] {
			case white:
				if cyc := visit(s); cyc != nil {
					return cyc
				}
			case grey:
				return path[slices.Index(path, s):]
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
				fmt.Fprintf(&sb, "%q -> ", c.name())
			}
			fmt.Fprintf(&sb, "%q", cyc[0].name())
			return fmt.Errorf("ompss: dependency cycle among %d tasks: %s", len(cyc), sb.String())
		}
	}
	return nil
}

// Taskwait blocks the calling process until every submitted task and event
// has completed. A worker of the runtime may not call it: it would wait for
// its own task. In strict mode it first verifies the dependency graph is
// acyclic, panicking with the cycle (which the vtime engine converts into a
// structured Run error) instead of blocking forever.
func (rt *Runtime) Taskwait(p *vtime.Proc) {
	rt.notWorker(p, "Taskwait")
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
