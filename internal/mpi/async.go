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
// transfer time is not attributed to any compute lane. Helpers are
// reused: one that has delivered its exchange parks, and the rank's next
// post wakes it instead of spawning a process, so a run creates as many
// helpers per rank as it ever has exchanges in flight, not one per post.
// A helper is a process whose exchange is its state.

// Done receives the result of a posted exchange on the helper process:
// Done must not suspend it.
type Done interface {
	Done(p *vtime.Proc, recv [][]complex128)
}

// DoneFunc adapts a function to Done.
type DoneFunc func(p *vtime.Proc, recv [][]complex128)

// Done calls f.
func (f DoneFunc) Done(p *vtime.Proc, recv [][]complex128) { f(p, recv) }

// helper is a communication thread of one rank and the exchange it
// carries out.
type helper struct {
	ctx   Ctx
	c     *Comm
	tag   int
	send  [][]complex128
	bytes float64
	done  Done
}

// IAlltoallv posts an Alltoallv without blocking the caller. When the
// exchange completes, done runs on the helper process with the received
// chunks (nil when send is nil, as for Exchange).
func IAlltoallv(ctx *Ctx, c *Comm, tag int, send [][]complex128, bytes float64, done Done) {
	w := ctx.W
	if w.idle == nil {
		w.idle = make([][]*helper, w.Size)
	}
	var h *helper
	if idle := w.idle[ctx.Rank]; len(idle) > 0 {
		h, w.idle[ctx.Rank] = idle[len(idle)-1], idle[:len(idle)-1]
		w.Eng.Unpark(h.ctx.Proc)
	} else {
		h = &helper{}
		h.ctx.W, h.ctx.Rank, h.ctx.Silent = w, ctx.Rank, true
		w.asyncSeq++
		h.ctx.Proc = w.Eng.Spawn(fmt.Sprintf("commthread.r%d.%d", ctx.Rank, w.asyncSeq), h)
	}
	h.ctx.Lane = ctx.Lane
	h.c, h.tag, h.send, h.bytes, h.done = c, tag, send, bytes, done
}

// Resume is a helper's turn: go on with the posted exchange and, once it is
// done, hand the result to its Done, then park on the rank's idle list
// until the next post.
func (h *helper) Resume(p *vtime.Proc) {
	recv, ok := h.ctx.Exchange(h.c, h.tag, h.send, h.bytes)
	if !ok {
		return
	}
	done := h.done
	h.c, h.send, h.done = nil, nil, nil
	done.Done(p, recv)
	w := h.ctx.W
	w.idle[h.ctx.Rank] = append(w.idle[h.ctx.Rank], h)
	p.Park()
}
