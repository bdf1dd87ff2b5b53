// Package blockintask seeds violations of the blockintask rule: blocking
// mpi/vtime calls inside ompss task bodies through captured outer contexts.
package blockintask

import (
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/vtime"
)

func capturedCtx(p *vtime.Proc, rt *ompss.Runtime, ctx *mpi.Ctx, c *mpi.Comm) {
	rt.Submit(p, "band", nil, 0, func(w *ompss.Worker) {
		c.Barrier(ctx, 1) // want "captured from outside"
	})
}

func capturedProc(p *vtime.Proc, rt *ompss.Runtime, q *vtime.Queue[int]) {
	rt.TaskLoopInGroup(p, rt.NewGroup(), "loop", 4, 1, func(w *ompss.Worker, lo, hi int) {
		_, _ = q.Pop(p) // want "captured from outside"
	})
}

func capturedSend(p *vtime.Proc, rt *ompss.Runtime, ctx *mpi.Ctx, c *mpi.Comm) {
	g := rt.NewGroup()
	rt.SubmitInGroup(p, g, "send", nil, 0, func(w *ompss.Worker) {
		mpi.Send(ctx, c, 1, 3, []float64{1}, 8) // want "captured from outside"
	})
}

func taskwaitInTask(p *vtime.Proc, rt *ompss.Runtime) {
	rt.Submit(p, "parent", nil, 0, func(w *ompss.Worker) {
		rt.Taskwait(w.Proc) // want "Taskwait inside a task body"
	})
}

// workerCtx is the sanctioned pattern: the MPI context is built from the
// worker's own process and lane inside the task body.
func workerCtx(p *vtime.Proc, rt *ompss.Runtime, world *mpi.World, c *mpi.Comm) {
	rt.Submit(p, "band", nil, 0, func(w *ompss.Worker) {
		ctx := &mpi.Ctx{W: world, Proc: w.Proc, Rank: 0, Lane: w.Lane}
		c.Barrier(ctx, 1)
	})
}

// groupWait is the lane-aware waiting entry point and stays exempt even
// though the group is captured from outside.
func groupWait(p *vtime.Proc, rt *ompss.Runtime) {
	g := rt.NewGroup()
	rt.SubmitInGroup(p, g, "parent", nil, 0, func(w *ompss.Worker) {
		g.Wait(w)
	})
}
