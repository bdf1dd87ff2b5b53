package mpi

import (
	"fmt"
	"slices"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// opName is the trace and metric name of the package's one collective.
const opName = "Alltoallv"

// elemBytes is the size of one moved element (a complex128).
const elemBytes = 16

type rvKey struct {
	comm string
	tag  int
	gen  int
}

type seqKey struct {
	comm string
	tag  int
	rank int
}

// rendezvous is the meeting point of one Alltoallv call instance. The
// world recycles it once every member has left, so a run allocates as
// many as it ever has exchanges in flight.
type rendezvous struct {
	need, arrived, picked int
	slots                 []slot // indexed by communicator rank
	maxBytes              float64
	transfer              float64
	wq                    vtime.WaitQueue
	// c, tag and gen name the call instance in deadlock reports.
	c        *Comm
	tag, gen int
}

// slot is one member's contribution to a rendezvous: its send chunks (nil
// without a payload) and whether it has arrived.
type slot struct {
	send [][]complex128
	here bool
}

// newRendezvous returns an empty rendezvous for call #gen of tag on c,
// recycled if the world has one.
func (w *World) newRendezvous(c *Comm, tag, gen int) *rendezvous {
	var rv *rendezvous
	if n := len(w.spare); n > 0 {
		rv, w.spare = w.spare[n-1], w.spare[:n-1]
	} else {
		rv = &rendezvous{}
		rv.wq.Describe = rv.describe
	}
	n := len(c.ranks)
	rv.need, rv.arrived, rv.picked = n, 0, 0
	rv.maxBytes, rv.transfer = 0, 0
	rv.slots = slices.Grow(rv.slots[:0], n)[:n]
	rv.c, rv.tag, rv.gen = c, tag, gen
	return rv
}

// describe renders the rendezvous state for deadlock reports: which world
// ranks have arrived and which are still missing.
func (rv *rendezvous) describe() string {
	c, tag, gen := rv.c, rv.tag, rv.gen
	var arrived, missing []int
	for i, s := range rv.slots {
		if s.here {
			arrived = append(arrived, c.ranks[i])
		} else {
			missing = append(missing, c.ranks[i])
		}
	}
	return fmt.Sprintf("mpi: %s tag %d (call #%d) on comm %s: arrived %d/%d, ranks %v; missing ranks %v",
		opName, tag, gen, c.id, rv.arrived, rv.need, arrived, missing)
}

// Exchange is the Alltoallv of the FFT kernel: every member sends send[j]
// to communicator rank j and receives recv[j] from j. bytes is the volume
// this rank sends, as the caller's model states it; every member is charged
// the largest volume of any member, the bulk-synchronous behaviour of an
// on-node Alltoall. It reports whether the call is done, with the received
// chunks (see Ctx).
//
// send may be nil: the call then synchronizes and charges exactly what it
// would with a payload, moves nothing and returns nil. A non-nil send must
// hold one chunk per member and exactly bytes of data, or the call panics.
// The returned chunks alias the senders' buffers; receivers must not mutate
// them (the kernel copies into its own layout).
//
// The steps are the rendezvous: every member of c arrives with its send
// chunks and volume, and the last arriver prices the transfer from the
// largest volume; the endpoint, which every member then queues for; and the
// transfer, which every member pays before it leaves, with a payload, with
// the chunks sent to it. Calls with the same (comm, tag) match across ranks
// in per-rank call order, so concurrent exchanges from different task
// threads are safe as long as they use distinct tags.
func (ctx *Ctx) Exchange(c *Comm, tag int, send [][]complex128, bytes float64) ([][]complex128, bool) {
	p := ctx.Proc
	switch ctx.at {
	case idle:
		ctx.arrive(c, tag, send, bytes)
		if p.Suspended() {
			return nil, false
		}
	case arrived, queued, moving:
		ctx.goOn(opName)
	default:
		panic(fmt.Sprintf("mpi: %s called by process %q while its Compute is in flight", opName, p.Name()))
	}
	w := ctx.W
	ep := w.endpoints[ctx.Rank]
	if ctx.at != moving {
		// Per-rank endpoint serialization: concurrent transfers issued by
		// threads of the same rank queue on the rank's MPI endpoint.
		ctx.at = queued
		if !ep.Acquire(p) {
			return nil, false
		}
		ctx.at, ctx.syncEnd = moving, p.Now()
		if t := ctx.rv.transfer; t > 0 {
			p.Sleep(t)
			return nil, false
		}
	}
	return ctx.leave(ep), true
}

// arrive enters the caller into the rendezvous of its call, waiting there
// unless it is the last member to arrive, which prices the transfer and
// wakes the others.
func (ctx *Ctx) arrive(c *Comm, tag int, send [][]complex128, bytes float64) {
	if send != nil {
		if len(send) != c.Size() {
			panic(fmt.Sprintf("mpi: %s tag %d on comm %s: rank %d sends %d chunks for comm of size %d",
				opName, tag, c.id, ctx.Rank, len(send), c.Size()))
		}
		n := 0
		for _, s := range send {
			n += len(s)
		}
		if got := float64(n * elemBytes); got != bytes {
			panic(fmt.Sprintf("mpi: %s tag %d on comm %s: rank %d sends %g bytes but declares %g (payload and volume model disagree)",
				opName, tag, c.id, ctx.Rank, got, bytes))
		}
	}
	w := c.w
	me := c.RankIn(ctx)
	sk := seqKey{c.id, tag, me}
	gen := w.callSeq[sk]
	w.callSeq[sk] = gen + 1
	key := rvKey{c.id, tag, gen}
	if w.Strict && gen > 0 {
		// A new call instance posted while the previous one has not yet
		// gathered all participants means two same-tag collectives are in
		// flight concurrently (different task threads of one rank): their
		// generations can cross-match across ranks and silently pair the
		// wrong calls. Sequential reuse of a tag is fine — a blocking call
		// cannot return before its own generation completes.
		if prev := w.rendezvous[rvKey{c.id, tag, gen - 1}]; prev != nil && prev.arrived < prev.need {
			panic(fmt.Sprintf(
				"mpi: concurrent reuse of tag %d for %s on comm %s by rank %d: call #%d posted while call #%d has only %d of %d participants (concurrent collectives need distinct tags)",
				tag, opName, c.id, ctx.Rank, gen, gen-1, prev.arrived, prev.need))
		}
	}
	rv := w.rendezvous[key]
	if rv == nil {
		rv = w.newRendezvous(c, tag, gen)
		w.rendezvous[key] = rv
	}
	if rv.slots[me].here {
		panic(fmt.Sprintf("mpi: duplicate arrival of rank %d in %s/%s tag %d", ctx.Rank, c.id, opName, tag))
	}
	rv.slots[me] = slot{send: send, here: true}
	rv.arrived++
	rv.maxBytes = max(rv.maxBytes, bytes)
	w.inComm++
	ctx.at, ctx.start, ctx.rv, ctx.me = arrived, ctx.Proc.Now(), rv, me

	if rv.arrived < rv.need {
		rv.wq.Wait(ctx.Proc)
		return
	}
	var moved float64
	if w.Node != nil {
		// Bandwidth is shared among concurrently communicating lanes, but
		// per-rank endpoint serialization means at most one transfer per
		// rank is in flight, so the sharing degree never exceeds the rank
		// count (threads and communication helpers queued on their
		// endpoint must not dilute the bandwidth).
		rv.transfer = w.Node.AlltoallTime(rv.need, rv.maxBytes, min(w.inComm, w.Size))
		moved = rv.maxBytes * float64(rv.need)
	}
	// One collective instance completed: count it and its volume once.
	c.m.calls.Inc()
	if moved > 0 {
		c.m.bytes.Add(moved)
	}
	c.m.callBytes.Observe(moved)
	rv.wq.WakeAll(ctx.Proc)
}

// leave ends the caller's transfer: it frees the endpoint ep, records the
// call and returns the chunks sent to the caller; the last member to leave
// recycles the rendezvous.
func (ctx *Ctx) leave(ep *vtime.Semaphore) [][]complex128 {
	w, rv, me := ctx.W, ctx.rv, ctx.me
	c := rv.c
	ep.Release(ctx.Proc)
	w.inComm--
	if !ctx.Silent {
		start, syncEnd, end := ctx.start, ctx.syncEnd, ctx.Proc.Now()
		if w.Sink != nil {
			trace.Recorder{S: w.Sink, Lane: ctx.Lane}.MPI(opName, c.id, rv.tag, start, syncEnd, end)
		}
		c.m.sync.Add(syncEnd - start)
		c.m.xfer.Add(end - syncEnd)
	}
	var recv [][]complex128
	if rv.slots[me].send != nil {
		recv = rv.gather(ctx, me)
	}
	rv.picked++
	if rv.picked == rv.need {
		delete(w.rendezvous, rvKey{c.id, rv.tag, rv.gen})
		clear(rv.slots)
		rv.c = nil
		w.spare = append(w.spare, rv)
	}
	ctx.at, ctx.rv = idle, nil
	return recv
}

// gather returns the chunks the members of rv sent to communicator rank
// me, the receive side of a payload-carrying call.
func (rv *rendezvous) gather(ctx *Ctx, me int) [][]complex128 {
	out := make([][]complex128, len(rv.slots))
	for j, s := range rv.slots {
		if s.send == nil {
			panic(fmt.Sprintf("mpi: %s tag %d on comm %s: rank %d sent no payload to rank %d's payload-carrying call",
				opName, rv.tag, rv.c.id, rv.c.ranks[j], ctx.Rank))
		}
		out[j] = s.send[me]
	}
	return out
}
