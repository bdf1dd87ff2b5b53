package blockintask

// Event-graph cases: a task submitted after predecessor nodes obeys the
// same captured-context discipline as every other task, and Runtime.Wait
// never belongs in a task body — the node belongs in the predecessor list.

import (
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/vtime"
)

func capturedCtxAfterEvent(p *vtime.Proc, rt *ompss.Runtime, ctx *mpi.Ctx, c *mpi.Comm, ev *ompss.Task) {
	rt.Submit(p, "band", []*ompss.Task{ev}, 0, func(w *ompss.Worker) {
		c.Barrier(ctx, 1) // want "captured from outside"
	})
}

func waitInTask(p *vtime.Proc, rt *ompss.Runtime, ev *ompss.Task) {
	rt.Submit(p, "band", nil, 0, func(w *ompss.Worker) {
		rt.Wait(w.Proc, ev) // want "Runtime.Wait inside a task body"
	})
}

// releasingTask and joinWait are the sanctioned shapes: a task completes
// an event to release what follows it, and the rank's main process — not
// a task — parks on the final join.
func releasingTask(p *vtime.Proc, rt *ompss.Runtime, ev *ompss.Task) {
	rt.Submit(p, "release", nil, 0, func(w *ompss.Worker) {
		rt.Complete(w.Proc, ev)
	})
}

func joinWait(p *vtime.Proc, rt *ompss.Runtime, last []*ompss.Task) {
	rt.Wait(p, rt.Event(p, "jobs", last))
}
