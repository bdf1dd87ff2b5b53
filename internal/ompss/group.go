package ompss

import (
	"fmt"

	"repro/internal/vtime"
)

// Group collects related tasks so a parent task can wait for exactly its
// children (the OmpSs nested-task / taskwait-on-children idiom used by the
// paper's nested taskloops in cft_2xy and cft_1z).
type Group struct {
	_       vtime.NoCopy
	rt      *Runtime
	pending int
	wq      vtime.WaitQueue
}

// NewGroup returns an empty task group.
func (rt *Runtime) NewGroup() *Group {
	g := &Group{rt: rt}
	g.wq.Describe = func() string {
		return fmt.Sprintf("ompss: group wait (%d tasks of the group pending)", g.pending)
	}
	return g
}

// SubmitInGroup submits a task belonging to the group.
func (rt *Runtime) SubmitInGroup(p *vtime.Proc, g *Group, label string, after []*Task, priority int, fn func(w *Worker)) *Task {
	return rt.submitInGroup(p, g, rt.node(label, after), priority, fn)
}

// submitInGroup makes node t a task of the group; runTask counts it off
// the group when its body returns.
func (rt *Runtime) submitInGroup(p *vtime.Proc, g *Group, t *Task, priority int, fn func(w *Worker)) *Task {
	if g.rt != rt {
		panic("ompss: group belongs to a different runtime")
	}
	g.pending++
	t.group = g
	return rt.submit(p, t, priority, fn)
}

// TaskLoopInGroup submits one group task per grain-sized chunk of [0,n),
// each named n followed by its chunk range, as in "fft-z.it3[0:200]".
func (rt *Runtime) TaskLoopInGroup(p *vtime.Proc, g *Group, n Name, count, grain int, body func(w *Worker, lo, hi int)) {
	if grain <= 0 {
		grain = 1
	}
	chunk := func(w *Worker) { body(w, w.task.lo, w.task.hi) }
	for lo := 0; lo < count; lo += grain {
		t := rt.numbered(n, nil)
		t.lo, t.hi = lo, min(lo+grain, count)
		rt.submitInGroup(p, g, t, 0, chunk)
	}
}

// Wait blocks the calling worker until every task of the group has
// completed. While waiting, the worker executes ready tasks belonging to
// the group (the taskwait child-scheduling of Nanos++), so nested taskloops
// make progress even when every worker thread is a waiting parent. Only
// group members are executed inline: picking up arbitrary ready tasks could
// block the waiting worker inside an unrelated MPI call and deadlock the
// rank. It reports whether the group is done: on a callback worker a wait
// is a state of the worker, so Wait books it and returns false, and the
// body returns and is called again once the group is done; a goroutine
// worker runs the wait on the spot and gets true.
func (g *Group) Wait(w *Worker) bool {
	if g.pending == 0 {
		return true
	}
	w.frames = append(w.frames, frame{group: g})
	if w.Proc.Callback() {
		return false
	}
	outer := w.task
	w.run(len(w.frames))
	w.task = outer
	return true
}
