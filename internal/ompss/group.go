package ompss

import (
	"fmt"

	"repro/internal/vtime"
)

// Group collects related tasks so a parent task can wait for exactly its
// children (the OmpSs nested-task / taskwait-on-children idiom used by the
// paper's nested taskloops in cft_2xy and cft_1z).
type Group struct {
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
	if g.rt != rt {
		panic("ompss: group belongs to a different runtime")
	}
	g.pending++
	t := rt.Submit(p, label, after, priority, func(w *Worker) {
		fn(w)
		g.pending--
		if g.pending == 0 {
			g.wq.WakeAll(w.Proc)
		}
	})
	t.group = g
	return t
}

// TaskLoopInGroup submits one group task per grain-sized chunk of [0,n).
func (rt *Runtime) TaskLoopInGroup(p *vtime.Proc, g *Group, label string, n, grain int, body func(w *Worker, lo, hi int)) {
	if grain <= 0 {
		grain = 1
	}
	for lo := 0; lo < n; lo += grain {
		hi := lo + grain
		if hi > n {
			hi = n
		}
		lo, hi := lo, hi
		rt.SubmitInGroup(p, g, fmt.Sprintf("%s[%d:%d]", label, lo, hi), nil, 0, func(w *Worker) {
			body(w, lo, hi)
		})
	}
}

// Wait blocks the calling worker until every task of the group has
// completed. While waiting, the worker executes ready tasks belonging to
// the group (the taskwait child-scheduling of Nanos++), so nested taskloops
// make progress even when every worker thread is a waiting parent. Only
// group members are executed inline: picking up arbitrary ready tasks could
// block the waiting worker inside an unrelated MPI call and deadlock the
// rank.
func (g *Group) Wait(w *Worker) {
	rt := g.rt
	for g.pending > 0 {
		if t := rt.popReadyInGroup(g); t != nil {
			rt.runTask(w, t)
			continue
		}
		g.wq.Wait(w.Proc)
	}
}
