package mpi

import (
	"fmt"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// Point-to-point messaging with synchronous (rendezvous) semantics: Send
// blocks until the matching Recv is posted, then both sides pay the
// transfer time. Messages match on (communicator, source, destination, tag)
// in posting order.

type p2pKey struct {
	comm     string
	src, dst int // communicator ranks
	tag      int
}

type p2pMsg struct {
	data    any
	bytes   float64
	sender  *vtime.Proc
	sentAt  float64
	readyAt float64 // set when the pair has met
	done    bool
}

type p2pQueue struct {
	msgs  []*p2pMsg
	recvQ vtime.WaitQueue
}

func (w *World) p2pQueueFor(k p2pKey) *p2pQueue {
	q := w.p2p[k]
	if q == nil {
		q = &p2pQueue{}
		q.recvQ.Describe = func() string {
			return fmt.Sprintf("mpi: Recv from rank %d tag %d on comm %s: no matching Send posted", k.src, k.tag, k.comm)
		}
		w.p2p[k] = q
	}
	return q
}

// Send delivers data to communicator rank dst, blocking until the receiver
// posts the matching Recv and the transfer completes.
func Send[T any](ctx *Ctx, c *Comm, dst, tag int, data []T, elemBytes int) {
	w := c.w
	me := c.RankIn(ctx)
	q := w.p2pQueueFor(p2pKey{c.id, me, dst, tag})
	msg := &p2pMsg{
		data:   data,
		bytes:  float64(len(data) * elemBytes),
		sender: ctx.Proc,
		sentAt: ctx.Proc.Now(),
	}
	q.msgs = append(q.msgs, msg)
	w.inComm++
	start := ctx.Proc.Now()
	q.recvQ.WakeOne(ctx.Proc) // a receiver may already be waiting
	// Block until the receiver marks the message done.
	for !msg.done {
		ctx.Proc.BlockOn(func() string {
			return fmt.Sprintf("mpi: Send to rank %d tag %d on comm %s: no matching Recv posted", dst, tag, c.id)
		})
	}
	w.inComm--
	end := ctx.Proc.Now()
	if w.Sink != nil && !ctx.Silent {
		trace.Recorder{S: w.Sink, Lane: ctx.Lane}.MPI(OpSend.Name(), c.id, tag, start, msg.readyAt, end)
	}
	com := w.metricsFor(c.id, OpSend)
	com.calls.Inc()
	com.bytes.Add(msg.bytes)
	com.callBytes.Observe(msg.bytes)
	if !ctx.Silent {
		com.sync.Add(msg.readyAt - start)
		com.xfer.Add(end - msg.readyAt)
	}
}

// Recv receives a message from communicator rank src, blocking until the
// matching Send is posted and the transfer completes.
func Recv[T any](ctx *Ctx, c *Comm, src, tag int) []T {
	w := c.w
	me := c.RankIn(ctx)
	q := w.p2pQueueFor(p2pKey{c.id, src, me, tag})
	w.inComm++
	start := ctx.Proc.Now()
	for len(q.msgs) == 0 {
		q.recvQ.Wait(ctx.Proc)
	}
	msg := q.msgs[0]
	q.msgs = q.msgs[1:]
	msg.readyAt = ctx.Proc.Now()
	var transfer float64
	if w.Node != nil {
		lanes := w.inComm
		if lanes > w.Size {
			lanes = w.Size
		}
		transfer = w.Node.P2PTime(msg.bytes, lanes)
	}
	if transfer > 0 {
		ctx.Proc.Sleep(transfer)
	}
	msg.done = true
	ctx.Proc.Wake(msg.sender)
	w.inComm--
	end := ctx.Proc.Now()
	if w.Sink != nil && !ctx.Silent {
		trace.Recorder{S: w.Sink, Lane: ctx.Lane}.MPI(OpRecv.Name(), c.id, tag, start, msg.readyAt, end)
	}
	com := w.metricsFor(c.id, OpRecv)
	com.calls.Inc()
	if !ctx.Silent {
		com.sync.Add(msg.readyAt - start)
		com.xfer.Add(end - msg.readyAt)
	}
	return msg.data.([]T)
}
