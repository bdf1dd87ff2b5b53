package parbody

// Work-stealing cases: Pool.ParallelFor bodies run on the same bare host
// goroutines as the package-level entry point — a stolen chunk executes on
// whichever pool worker claims it, still outside the virtual-time engine.

import (
	"repro/internal/knl"
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/par"
	"repro/internal/vtime"
)

func collectiveInPoolBody(pool *par.Pool, ctx *mpi.Ctx, c *mpi.Comm, send [][]complex128) {
	pool.ParallelFor(4, 1, func(lo, hi int) {
		mpi.Alltoallv(ctx, c, 1, send, mpi.BytesComplex128) // want "posts an MPI collective"
	})
}

func submitAfterEventInPoolBody(p *vtime.Proc, rt *ompss.Runtime, ev *ompss.Task, pool *par.Pool) {
	pool.ParallelFor(4, 1, func(lo, hi int) {
		rt.Submit(p, "band", []*ompss.Task{ev}, 0, func(w *ompss.Worker) {}) // want "submits an ompss task"
	})
}

func joinWaitInPoolBody(p *vtime.Proc, rt *ompss.Runtime, join *ompss.Task, pool *par.Pool) {
	pool.ParallelFor(4, 1, func(lo, hi int) {
		rt.Wait(p, join) // want "blocks the simulated runtime"
	})
}

func chargeInPoolBody(pool *par.Pool, w *ompss.Worker) {
	pool.ParallelFor(4, 1, func(lo, hi int) {
		w.Compute("fft-z", knl.ClassStream, 100) // want "charges simulated compute time"
	})
}

// pureNumericPool is the sanctioned shape: stolen chunks only touch plain
// data in their own index range.
func pureNumericPool(pool *par.Pool, out []float64) {
	pool.ParallelFor(len(out), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] *= 2
		}
	})
}
