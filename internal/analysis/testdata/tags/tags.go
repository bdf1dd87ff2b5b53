// Package tags seeds violations of the tag-discipline rule: rank-dependent
// collective tags and constant tags shared by concurrent collectives.
package tags

import (
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/vtime"
)

func rankTag(ctx *mpi.Ctx, c *mpi.Comm) {
	mpi.Alltoallv(ctx, c, ctx.Rank, nil, 0) // want "rank-dependent tag"
}

func rankTagViaLocal(ctx *mpi.Ctx, c *mpi.Comm) {
	tag := 100 + c.RankIn(ctx)
	mpi.Alltoallv(ctx, c, tag, nil, 0) // want "rank-dependent tag"
}

func constantCollision(p *vtime.Proc, rt *ompss.Runtime, ctx *mpi.Ctx, c *mpi.Comm) {
	rt.Submit(p, "band", nil, 0, func(w *ompss.Worker) {
		mpi.Alltoallv(ctx, c, 7, nil, 0) // want "tag 7 reused"
	})
	mpi.Alltoallv(ctx, c, 7, nil, 0) // want "tag 7 reused"
}

// sequentialReuse is well-defined: calls with one tag match across ranks in
// per-rank call order, so reuse outside task bodies is clean.
func sequentialReuse(ctx *mpi.Ctx, c *mpi.Comm) {
	mpi.Alltoallv(ctx, c, 9, nil, 0)
	mpi.Alltoallv(ctx, c, 9, nil, 0)
}

// distinctTags is the sanctioned concurrent pattern: per-instance tags.
func distinctTags(p *vtime.Proc, rt *ompss.Runtime, ctx *mpi.Ctx, c *mpi.Comm) {
	for b := 0; b < 4; b++ {
		b := b
		rt.Submit(p, "band", nil, 0, func(w *ompss.Worker) {
			mpi.Alltoallv(ctx, c, 2*b, nil, 0)
		})
	}
}
