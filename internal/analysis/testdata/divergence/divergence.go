// Package divergence seeds violations of the divergence rule: collectives
// that only some ranks reach. The expectations are encoded in the trailing
// want comments, checked by the analysis test harness.
package divergence

import (
	"repro/internal/knl"
	"repro/internal/mpi"
)

func guardedExchange(ctx *mpi.Ctx, c *mpi.Comm) {
	if ctx.Rank == 0 {
		mpi.Alltoallv(ctx, c, 1, nil, 0) // want "rank-dependent"
	}
}

func guardedViaLocal(ctx *mpi.Ctx, c *mpi.Comm) {
	isRoot := c.RankIn(ctx) == 0
	if isRoot {
		mpi.Alltoallv(ctx, c, 3, make([][]complex128, c.Size()), 0) // want "rank-dependent"
	}
}

func elseBranch(ctx *mpi.Ctx, c *mpi.Comm) [][]complex128 {
	if ctx.Rank%2 == 0 {
		return nil
	} else {
		return mpi.Alltoallv(ctx, c, 4, nil, 0) // want "rank-dependent"
	}
}

func switchRank(ctx *mpi.Ctx, c *mpi.Comm) {
	switch ctx.Rank {
	case 0:
		mpi.Alltoallv(ctx, c, 6, nil, 0) // want "rank-dependent"
	}
}

func loopBound(ctx *mpi.Ctx, c *mpi.Comm) {
	for i := 0; i < ctx.Rank; i++ {
		mpi.Alltoallv(ctx, c, 8, nil, 0) // want "rank-dependent"
	}
}

// allRanks is the clean pattern: collectives on every rank, rank-local
// work under rank branches.
func allRanks(ctx *mpi.Ctx, c *mpi.Comm) {
	mpi.Alltoallv(ctx, c, 1, nil, 0)
	if ctx.Rank == 0 {
		ctx.Compute("pack", knl.ClassMem, 1)
	} else if ctx.Rank == 1 {
		ctx.Compute("unpack", knl.ClassMem, 1)
	}
}

// suppressed demonstrates the //fftxvet:ignore escape hatch.
func suppressed(ctx *mpi.Ctx, c *mpi.Comm) {
	if ctx.Rank < c.Size() {
		//fftxvet:ignore divergence — every rank satisfies the guard, the branch is not divergent
		mpi.Alltoallv(ctx, c, 5, nil, 0)
	}
}
