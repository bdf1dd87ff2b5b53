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

// IAlltoallv posts an Alltoallv without blocking the caller. When the
// exchange completes, done runs on the helper process with the received
// chunks (nil when send is nil, as for Alltoallv).
func IAlltoallv(ctx *Ctx, c *Comm, tag int, send [][]complex128, bytes float64, done func(p *vtime.Proc, recv [][]complex128)) {
	hc := &Ctx{W: ctx.W, Rank: ctx.Rank, Lane: ctx.Lane, Silent: true}
	ctx.W.asyncSeq++
	name := fmt.Sprintf("commthread.r%d.%d", ctx.Rank, ctx.W.asyncSeq)
	ctx.Proc.Engine().Spawn(name, func(p *vtime.Proc) {
		hc.Proc = p
		done(p, Alltoallv(hc, c, tag, send, bytes))
	})
}
