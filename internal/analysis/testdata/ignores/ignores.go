// Package ignores exercises //fftxvet:ignore bookkeeping: one comment that
// suppresses a real finding, and one stale comment on a clean line that the
// unused-ignore audit must report.
package ignores

import "repro/internal/mpi"

func guarded(ctx *mpi.Ctx, c *mpi.Comm) {
	if ctx.Rank == 0 {
		mpi.Alltoallv(ctx, c, 1, nil, 0) //fftxvet:ignore divergence — every rank satisfies the guard here
	}
}

func clean(out []float64) {
	//fftxvet:ignore parbody — stale: the ParallelFor below was inlined away
	for i := range out {
		out[i] = 0
	}
}
