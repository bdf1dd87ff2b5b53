package parbody

// Interprocedural cases: the violation hides behind a two-level helper
// chain; the rule reports it at the call inside the body with the full
// path.

import (
	"repro/internal/knl"
	"repro/internal/mpi"
	"repro/internal/par"
)

// shuffle posts the collective at the bottom of the helper chain.
func shuffle(ctx *mpi.Ctx, c *mpi.Comm, send [][]complex128) {
	mpi.Alltoallv(ctx, c, 2, send, 0)
}

// distribute is the middle hop: it only forwards to shuffle.
func distribute(ctx *mpi.Ctx, c *mpi.Comm, send [][]complex128) {
	shuffle(ctx, c, send)
}

func helperChainInBody(ctx *mpi.Ctx, c *mpi.Comm, send [][]complex128) {
	par.ParallelFor(4, 1, func(lo, hi int) {
		distribute(ctx, c, send) // want "parbody.distribute → parbody.shuffle → mpi.Alltoallv"
	})
}

// chargeHelper charges simulated compute one level down.
func chargeHelper(ctx *mpi.Ctx) {
	ctx.Compute("fft-z", knl.ClassStream, 10)
}

func chargeViaHelper(ctx *mpi.Ctx) {
	par.ParallelFor(4, 1, func(lo, hi int) {
		chargeHelper(ctx) // want "charges simulated compute time"
	})
}

// pureHelper keeps a helper call in a body clean: no runtime effects.
func pureHelper(out []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		out[i] *= 2
	}
}

func pureHelperInBody(out []float64) {
	par.ParallelFor(len(out), 16, func(lo, hi int) {
		pureHelper(out, lo, hi)
	})
}
