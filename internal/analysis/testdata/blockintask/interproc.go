package blockintask

// Interprocedural cases: the task body blocks through a helper chain that
// carries a context captured from outside the task.

import (
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/vtime"
)

// waitOn blocks on an exchange at the bottom of the chain.
func waitOn(ctx *mpi.Ctx, c *mpi.Comm) [][]complex128 {
	return mpi.Alltoallv(ctx, c, 3, nil, 0)
}

// settle is the middle hop: it only forwards to waitOn.
func settle(ctx *mpi.Ctx, c *mpi.Comm) [][]complex128 {
	return waitOn(ctx, c)
}

func capturedThroughHelpers(p *vtime.Proc, rt *ompss.Runtime, ctx *mpi.Ctx, c *mpi.Comm) {
	rt.Submit(p, "band", nil, 0, func(w *ompss.Worker) {
		_ = settle(ctx, c) // want "blockintask.settle → blockintask.waitOn → mpi.Alltoallv"
	})
}

// workerCtxThroughHelpers is the sanctioned counterpart: the same helper
// chain is safe when the waiting context is built from the worker's own
// process and lane inside the task body.
func workerCtxThroughHelpers(p *vtime.Proc, rt *ompss.Runtime, world *mpi.World, c *mpi.Comm) {
	rt.Submit(p, "band", nil, 0, func(w *ompss.Worker) {
		ctx := &mpi.Ctx{W: world, Proc: w.Proc, Rank: 0, Lane: w.Lane}
		_ = settle(ctx, c)
	})
}

// pureTransform keeps helper calls in task bodies legal when the helper
// never blocks.
func pureTransform(xs []float64) {
	for i := range xs {
		xs[i] *= 2
	}
}

func pureHelperInTask(p *vtime.Proc, rt *ompss.Runtime, xs []float64) {
	rt.Submit(p, "scale", nil, 0, func(w *ompss.Worker) {
		pureTransform(xs)
	})
}
