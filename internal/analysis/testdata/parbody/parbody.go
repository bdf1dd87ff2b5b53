// Package parbody seeds violations of the parbody rule: simulated-runtime
// calls inside par.ParallelFor bodies, which run on bare host goroutines
// outside the virtual-time engine.
package parbody

import (
	"repro/internal/knl"
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/par"
	"repro/internal/vtime"
)

func collectiveInBody(ctx *mpi.Ctx, c *mpi.Comm, send [][]complex128) {
	par.ParallelFor(4, 1, func(lo, hi int) {
		mpi.Alltoallv(ctx, c, 1, send, 0) // want "posts an MPI collective"
	})
}

func blockingInBody(ctx *mpi.Ctx, sem *vtime.Semaphore, q *vtime.Queue[int]) {
	par.ParallelFor(4, 1, func(lo, hi int) {
		sem.Acquire(ctx.Proc)  // want "blocks the simulated runtime"
		_, _ = q.Pop(ctx.Proc) // want "blocks the simulated runtime"
	})
}

func submitInBody(p *vtime.Proc, rt *ompss.Runtime) {
	par.ParallelFor(4, 1, func(lo, hi int) {
		rt.Submit(p, "band", nil, 0, func(w *ompss.Worker) {}) // want "submits an ompss task"
	})
}

func computeInBody(ctx *mpi.Ctx, w *ompss.Worker) {
	par.ParallelFor(4, 1, func(lo, hi int) {
		ctx.Compute("fft-z", knl.ClassStream, 100) // want "charges simulated compute time"
		w.Compute("fft-z", knl.ClassStream, 100)   // want "charges simulated compute time"
	})
}

// pureNumeric is the sanctioned shape: the body only touches plain data in
// its own index range.
func pureNumeric(out []float64) {
	par.ParallelFor(len(out), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i) * 1.5
		}
	})
}

// nested bodies are their own units: the offending call is reported in the
// inner body, not twice.
func nestedBodies(ctx *mpi.Ctx, c *mpi.Comm) {
	par.ParallelFor(2, 1, func(lo, hi int) {
		par.ParallelFor(2, 1, func(lo2, hi2 int) {
			mpi.Alltoallv(ctx, c, 1, nil, 0) // want "posts an MPI collective"
		})
	})
}

// phaseWrapped mirrors the real kernels: the Compute charge happens in the
// enclosing phase, outside the ParallelFor body.
func phaseWrapped(ctx *mpi.Ctx, out []float64) {
	ctx.Compute("vofr", knl.ClassVector, 100)
	par.ParallelFor(len(out), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] *= 2
		}
	})
}
