package mpi

import (
	"fmt"

	"repro/internal/vtime"
)

// Asynchronous collectives in the communication-thread style of
// Marjanović et al. ("Overlapping Communication and Computation by Using a
// Hybrid MPI/SMPSs Approach", ICS'10), the mechanism the paper's future
// work points to: the collective is carried out by a helper process acting
// on the rank's behalf, the posting thread returns immediately, and the
// caller's completion callback runs (on the helper process) once the
// exchange finishes — typically completing an ompss event node that
// releases the consuming compute task.
//
// The helper participates in the rendezvous exactly like a blocking call
// (including the per-rank endpoint serialization), but its wait and
// transfer time is not attributed to any compute lane.

// helperCtx clones the posting context for the communication thread.
func helperCtx(ctx *Ctx) *Ctx {
	return &Ctx{W: ctx.W, Rank: ctx.Rank, Lane: ctx.Lane, Silent: true}
}

// IAlltoallv posts an Alltoallv without blocking the caller. When the
// exchange completes, done runs on the helper process with the received
// chunks.
func IAlltoallv[T any](ctx *Ctx, c *Comm, tag int, send [][]T, elemBytes int, done func(p *vtime.Proc, recv [][]T)) {
	hc := helperCtx(ctx)
	ctx.W.asyncSeq++
	name := fmt.Sprintf("commthread.r%d.%d", ctx.Rank, ctx.W.asyncSeq)
	ctx.Proc.Engine().Spawn(name, func(p *vtime.Proc) {
		hc.Proc = p
		recv := Alltoallv(hc, c, tag, send, elemBytes)
		done(p, recv)
	})
}

// ICollectiveCost posts a data-free collective (the cost-mode counterpart
// of IAlltoallv) and runs done on completion.
func ICollectiveCost(ctx *Ctx, c *Comm, op Op, tag int, bytesPerRank float64, done func(p *vtime.Proc)) {
	hc := helperCtx(ctx)
	ctx.W.asyncSeq++
	name := fmt.Sprintf("commthread.r%d.%d", ctx.Rank, ctx.W.asyncSeq)
	ctx.Proc.Engine().Spawn(name, func(p *vtime.Proc) {
		hc.Proc = p
		c.CollectiveCost(hc, op, tag, bytesPerRank)
		done(p)
	})
}
