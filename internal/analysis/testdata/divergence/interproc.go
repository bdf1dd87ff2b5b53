package divergence

// Interprocedural cases: rank-tainted helper returns make callers' branch
// conditions rank-dependent, and helpers that reach collectives are flagged
// under rank-dependent branches with their call path.

import (
	"repro/internal/knl"
	"repro/internal/mpi"
)

// myRank returns a rank-derived value: branching on it diverges.
func myRank(ctx *mpi.Ctx, c *mpi.Comm) int {
	return c.RankIn(ctx)
}

func guardedByHelperRank(ctx *mpi.Ctx, c *mpi.Comm) {
	if myRank(ctx, c) == 0 {
		mpi.Alltoallv(ctx, c, 11, nil, 0) // want "rank-dependent"
	}
}

// rankPlusOne launders the rank through a second helper level.
func rankPlusOne(ctx *mpi.Ctx, c *mpi.Comm) int {
	return myRank(ctx, c) + 1
}

func guardedByTwoLevelRank(ctx *mpi.Ctx, c *mpi.Comm) {
	if rankPlusOne(ctx, c) > 1 {
		mpi.Alltoallv(ctx, c, 12, nil, 0) // want "rank-dependent"
	}
}

// syncAll posts the collective at the bottom of a helper chain.
func syncAll(ctx *mpi.Ctx, c *mpi.Comm) {
	mpi.Alltoallv(ctx, c, 13, nil, 0)
}

func syncViaHelper(ctx *mpi.Ctx, c *mpi.Comm) {
	syncAll(ctx, c)
}

func guardedHelperChain(ctx *mpi.Ctx, c *mpi.Comm) {
	if ctx.Rank == 0 {
		syncViaHelper(ctx, c) // want "divergence.syncViaHelper → divergence.syncAll → mpi.Alltoallv"
	}
}

// helperRankEverywhere is the clean counterpart: the helper-derived rank
// only guards rank-local work and the collective runs on every rank.
func helperRankEverywhere(ctx *mpi.Ctx, c *mpi.Comm) {
	syncViaHelper(ctx, c)
	if myRank(ctx, c) == 0 {
		ctx.Compute("pack", knl.ClassMem, 1)
	}
}
