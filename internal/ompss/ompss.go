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
//
// A worker is a state machine — idle wait, runtime overhead, task bodies
// and the group waits they book — that runs on either kind of vtime
// process. A task body for a callback worker (NewCallback) is a state
// machine too: it returns after any call that suspends the worker —
// Compute returning false, or a vtime suspension (Proc.Suspended) — or
// books a group wait (Group.Wait returning false), and the worker calls it
// again when the suspension is over; a body that returns with neither is
// done. A goroutine worker (New) runs such bodies as well as bodies that
// simply block.
type Worker struct {
	Proc *vtime.Proc
	Lane int
	rt   *Runtime
	task *Task // the task whose body runs on the worker
	// frames are the tasks the worker runs and the group waits they have
	// booked, innermost last: a task under a group wait runs again once
	// the group is done. They start in frame0, which holds the one frame
	// of a worker that runs no nested loop.
	frames []frame
	frame0 [1]frame
	// claimed is the task whose runtime overhead the worker is serving;
	// idleStart and ovStart are when its idle wait and the overhead began.
	claimed            *Task
	idleStart, ovStart vtime.Time
	// computing is set while the job of Compute runs; start is when it
	// began.
	computing bool
	start     vtime.Time
}

// frame is a task a worker runs, or, with group set, a group wait of the
// task under it.
type frame struct {
	task  *Task
	start vtime.Time // when the task's body first ran
	group *Group
}

// Running returns the name of the task whose body runs on the worker: a
// body shared by many tasks reads its Seq and Unit to learn which one.
func (w *Worker) Running() Name {
	t := w.task
	return Name{Text: t.label, Seq: t.seq, Unit: t.unit}
}

// Compute runs a compute phase of the given class and instruction count on
// the worker's lane, recording a trace interval and the per-phase
// compute-time and instruction counters (the live-IPC inputs). It reports
// whether the phase is done: a callback worker whose job suspends it gets
// false, and its body calls Compute again, with the same arguments, when
// it next runs, which records the phase.
func (w *Worker) Compute(phase string, class knl.Class, instr float64) bool {
	if !w.computing {
		w.start = w.Proc.Now()
		w.Proc.Compute(vtime.Job{Work: instr, Class: int(class), Lane: w.Lane})
		if w.Proc.Suspended() {
			w.computing = true
			return false
		}
	}
	w.computing = false
	start, end := w.start, w.Proc.Now()
	if w.rt.sink != nil && end > start {
		w.rt.sink.Record(trace.Interval{
			Lane: w.Lane, Start: start, End: end,
			Kind: trace.KindCompute, Phase: phase, Class: int(class), Instr: instr,
		})
	}
	pm := phaseHandles.Get(phase, newPhaseMetrics)
	pm.seconds.Add(end - start)
	pm.instr.Add(instr)
	return true
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

	// stalls are the processes inside Taskwait and when each began
	// waiting.
	stalls []stall

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

// New creates a runtime whose workers run on the given hardware lanes, as
// goroutine processes: task bodies may block mid-body. The worker processes
// are spawned immediately; call Shutdown (usually after a final Taskwait)
// to let them exit. sink receives trace intervals and may be nil.
func New(eng *vtime.Engine, sink *trace.Trace, lanes []int) *Runtime {
	return newRuntime(eng, sink, lanes, false)
}

// NewCallback is New with workers that are callback processes: they start
// no goroutine, and every task body must be a state machine (see Worker).
func NewCallback(eng *vtime.Engine, sink *trace.Trace, lanes []int) *Runtime {
	return newRuntime(eng, sink, lanes, true)
}

func newRuntime(eng *vtime.Engine, sink *trace.Trace, lanes []int, callback bool) *Runtime {
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
		w := &Worker{Lane: lane, rt: rt, idleStart: eng.Now()}
		w.frames = w.frame0[:0]
		name := fmt.Sprintf("worker%d.lane%d", i, lane)
		if callback {
			w.Proc = eng.SpawnCallback(name, w)
		} else {
			w.Proc = eng.Spawn(name, func(*vtime.Proc) { w.run(0) })
		}
		if i == 0 {
			rt.worker0 = w.Proc.ID()
		}
	}
	return rt
}

// stall is a process waiting in Taskwait since start.
type stall struct {
	p     *vtime.Proc
	start vtime.Time
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
// panics. It reports whether the node has completed: a callback process
// that has to wait gets false and calls Wait again when it next runs; a
// goroutine process always gets true.
func (rt *Runtime) Wait(p *vtime.Proc, t *Task) bool {
	rt.notWorker(p, "Wait")
	for !t.done {
		if t.waiters == nil {
			t.waiters = &vtime.WaitQueue{Describe: func() string {
				return fmt.Sprintf("ompss: wait on %q (%d unmet deps)", t.name(), t.npred)
			}}
		}
		t.waiters.Wait(p)
		if p.Suspended() {
			return false
		}
	}
	return true
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

// Resume is a callback worker's turn.
func (w *Worker) Resume(*vtime.Proc) { w.run(0) }

// run drives the worker: the task bodies, the group waits they book and,
// with no task on hand, the idle wait for a ready task and the runtime
// overhead of claiming it. It returns once the frame stack is shallower
// than base — a goroutine worker's Group.Wait runs it nested, until its
// group wait is over — or, with base 0, once the runtime has shut down and
// no task is ready; a callback worker also returns when it suspends.
func (w *Worker) run(base int) {
	rt, p := w.rt, w.Proc
	for n := len(w.frames); n >= base; n = len(w.frames) {
		if n == 0 {
			if !w.claim() {
				return
			}
			continue
		}
		if g := w.frames[n-1].group; g != nil {
			if g.pending == 0 {
				w.frames = w.frames[:n-1]
			} else if t := rt.popReadyInGroup(g); t != nil {
				w.push(t)
			} else if g.wq.Wait(p); p.Suspended() {
				return
			}
			continue
		}
		t := w.frames[n-1].task
		w.task = t
		t.fn(w)
		if p.Suspended() {
			return
		}
		if len(w.frames) == n {
			w.finish()
		}
	}
}

// claim takes the next ready task, waiting while there is none, serves the
// runtime overhead and pushes the task. It reports false when the worker
// has no more work, or a callback worker has suspended.
func (w *Worker) claim() bool {
	rt, p := w.rt, w.Proc
	if w.claimed == nil {
		for len(rt.ready) == 0 {
			if rt.closed {
				return false
			}
			if rt.readyWQ.Wait(p); p.Suspended() {
				return false
			}
		}
		t := rt.popReady()
		if rt.sink != nil && p.Now() > w.idleStart {
			trace.Recorder{S: rt.sink, Lane: w.Lane}.Idle(w.idleStart, p.Now())
		}
		if rt.Overhead <= 0 {
			w.push(t)
			return true
		}
		w.claimed, w.ovStart = t, p.Now()
		if p.Sleep(rt.Overhead); p.Suspended() {
			return false
		}
	}
	if rt.sink != nil {
		trace.Recorder{S: rt.sink, Lane: w.Lane}.Runtime(w.ovStart, p.Now())
	}
	w.push(w.claimed)
	w.claimed = nil
	return true
}

// push starts running task t on the worker.
func (w *Worker) push(t *Task) {
	w.frames = append(w.frames, frame{task: t, start: w.Proc.Now()})
}

// finish completes the task on top of the worker's frames, whose body has
// returned done, observing its virtual duration.
func (w *Worker) finish() {
	rt, p := w.rt, w.Proc
	n := len(w.frames) - 1
	f := w.frames[n]
	w.frames = w.frames[:n]
	t := f.task
	if g := t.group; g != nil {
		g.pending--
		if g.pending == 0 {
			g.wq.WakeAll(p)
		}
	}
	mTaskDuration.Observe(p.Now() - f.start)
	rt.complete(p, t)
	if n == 0 {
		w.idleStart = p.Now()
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
// structured Run error) instead of blocking forever. It reports whether the
// wait is over: a callback process that has to wait gets false and calls
// Taskwait again when it next runs; a goroutine process always gets true.
func (rt *Runtime) Taskwait(p *vtime.Proc) bool {
	i := slices.IndexFunc(rt.stalls, func(s stall) bool { return s.p == p })
	if i < 0 {
		rt.notWorker(p, "Taskwait")
		if rt.Strict && rt.pending > 0 {
			if err := rt.CheckCycles(); err != nil {
				panic(err.Error())
			}
		}
		if rt.pending == 0 {
			return true
		}
		mTaskwaitStalls.Inc()
		rt.stalls = append(rt.stalls, stall{p, p.Now()})
	}
	for rt.pending > 0 {
		if rt.waitWQ.Wait(p); p.Suspended() {
			return false
		}
	}
	i = slices.IndexFunc(rt.stalls, func(s stall) bool { return s.p == p })
	d := p.Now() - rt.stalls[i].start
	rt.stalls = slices.Delete(rt.stalls, i, i+1)
	mTaskwaitSec.Add(d)
	rt.TaskwaitSec += d
	return true
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
