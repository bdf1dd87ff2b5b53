// Package mpi is an in-process message-passing library executing inside the
// vtime discrete-event simulator. It provides the MPI surface the FFTXlib
// kernel posts and nothing more: communicators over explicit rank lists and
// one collective, Alltoallv (blocking, or posted asynchronously through a
// communication thread with IAlltoallv), priced by the KNL node model.
//
// Every Alltoallv call states the byte volume its rank sends, as the
// caller's stage graph models it, and that volume is what the node model
// charges. The payload is optional: with one, the call also moves the data
// and panics if the payload's size differs from the stated volume; without
// one (the kernel's cost mode), it synchronizes and charges exactly the
// same, so the two modes cannot drift apart.
//
// Ranks (and, in MPI+tasks mode, the task-runtime worker threads that issue
// MPI calls on a rank's behalf) are simulated processes; each MPI call is
// split into a synchronization part (waiting for the other participants,
// recorded as trace.KindMPISync) and a transfer part (the data movement,
// recorded as trace.KindMPITransfer), which is exactly the decomposition the
// POP efficiency model of Tables I/II needs.
//
// Calls carry an explicit matching tag so that several exchanges on the
// same communicator can be in flight concurrently from different task
// threads (the per-band Alltoalls of the task-based engines); calls with the
// same (communicator, tag) match across ranks in call order.
package mpi

import (
	"fmt"

	"repro/internal/knl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// World is one simulated MPI job: a fixed set of ranks on one node.
type World struct {
	_    vtime.NoCopy
	Eng  *vtime.Engine
	Node *knl.Node
	// Sink receives the trace intervals of MPI calls and compute phases.
	// May be nil.
	Sink           *trace.Trace
	Size           int
	ThreadsPerRank int
	// Strict enables the runtime detection of concurrent same-tag
	// collectives. Violations panic inside the simulated process, which the
	// vtime engine converts into a structured Run error. Set it before
	// spawning processes.
	Strict bool

	rendezvous map[rvKey]*rendezvous
	spare      []*rendezvous // recycled rendezvous, see newRendezvous
	callSeq    map[seqKey]int
	asyncSeq   int         // helper-process counter for asynchronous collectives
	idle       [][]*helper // parked helpers, by rank
	inComm     int         // lanes currently inside an MPI call, for bandwidth sharing
	// endpoints serialize the transfer part of concurrent MPI calls issued
	// by different threads of the same rank (the MPI_THREAD_MULTIPLE
	// endpoint lock). Single-threaded ranks never contend on it; in
	// MPI+tasks mode it staggers the completion of the per-band
	// collectives, which is one of the physical sources of the phase
	// de-synchronization visible in Figure 7 of the paper.
	endpoints []*vtime.Semaphore
}

// NewWorld creates a world of size ranks with threadsPerRank hardware lanes
// each on one KNL node, which must have been created with
// size*threadsPerRank lanes and prices every transfer. A nil node makes
// transfers free. sink receives trace intervals and may be nil.
func NewWorld(eng *vtime.Engine, node *knl.Node, sink *trace.Trace, size, threadsPerRank int) *World {
	if threadsPerRank < 1 {
		threadsPerRank = 1
	}
	if node != nil && node.Lanes != size*threadsPerRank {
		panic(fmt.Sprintf("mpi: node has %d lanes, world needs %d", node.Lanes, size*threadsPerRank))
	}
	w := &World{
		Eng:            eng,
		Node:           node,
		Sink:           sink,
		Size:           size,
		ThreadsPerRank: threadsPerRank,
		rendezvous:     map[rvKey]*rendezvous{},
		callSeq:        map[seqKey]int{},
		endpoints:      make([]*vtime.Semaphore, size),
	}
	for r := range w.endpoints {
		r := r
		w.endpoints[r] = vtime.NewSemaphore(1)
		w.endpoints[r].SetDescribe(func() string {
			return fmt.Sprintf("mpi: endpoint lock of rank %d (another thread of the rank is transferring)", r)
		})
	}
	return w
}

// Lane returns the global lane index of a (rank, thread) pair.
func (w *World) Lane(rank, thread int) int { return rank*w.ThreadsPerRank + thread }

// Ctx identifies a calling thread: the simulated process, its MPI rank and
// its hardware lane. All MPI operations take a Ctx.
//
// Compute and Exchange run on either kind of vtime process. On a goroutine
// process they return when they are done. On a callback process a call
// that suspends the process returns false; the process returns from its
// turn and, when it next runs, calls the operation again — Compute with the
// same arguments, Exchange with any: only the call that starts an exchange
// reads them — which goes on from where it stopped, until it returns true.
// The Ctx keeps the state of the one operation in flight; Busy reports
// whether there is one.
type Ctx struct {
	_    vtime.NoCopy
	W    *World
	Proc *vtime.Proc
	Rank int
	Lane int
	// Silent suppresses trace recording for this context's MPI calls.
	// Communication-thread contexts (the asynchronous collectives) use it:
	// their wait and transfer time is hidden behind computation and must
	// not be attributed to a compute lane.
	Silent bool

	// at is the step the operation in flight has reached; start is when it
	// began and syncEnd when its exchange got the endpoint.
	at             step
	start, syncEnd vtime.Time
	// rv and me are the exchange's rendezvous and the caller's
	// communicator rank in it.
	rv *rendezvous
	me int
}

// step is how far the operation in flight on a Ctx has got.
type step uint8

const (
	idle      step = iota // no operation in flight
	computing             // the compute job runs
	arrived               // in the rendezvous, waiting for the other members
	queued                // all members arrived; waiting for the endpoint
	moving                // holding the endpoint for the transfer
)

// Busy reports whether the context has an operation in flight: a callback
// process that calls an operation again, to go on with it, finds it busy.
func (ctx *Ctx) Busy() bool { return ctx.at != idle }

// goOn checks that a call going on with the operation in flight comes in a
// later turn than the call that suspended it.
func (ctx *Ctx) goOn(op string) {
	if ctx.Proc.Suspended() {
		panic(fmt.Sprintf("mpi: %s called again by process %q before it resumed", op, ctx.Proc.Name()))
	}
}

// Spawn creates the goroutine process for one (rank, thread) slot and runs
// fn on it with a ready Ctx.
func (w *World) Spawn(rank, thread int, fn func(ctx *Ctx)) {
	ctx := &Ctx{W: w, Rank: rank, Lane: w.Lane(rank, thread)}
	ctx.Proc = w.Eng.Spawn(procName(rank, thread), func(*vtime.Proc) { fn(ctx) })
}

// SpawnCallback creates the callback process for one (rank, thread) slot,
// resumed through r, and sets ctx up as its context.
func (w *World) SpawnCallback(ctx *Ctx, rank, thread int, r vtime.Resumer) {
	ctx.W, ctx.Rank, ctx.Lane = w, rank, w.Lane(rank, thread)
	ctx.Proc = w.Eng.SpawnCallback(procName(rank, thread), r)
}

// procName names the process of a (rank, thread) slot.
func procName(rank, thread int) string { return fmt.Sprintf("rank%d.t%d", rank, thread) }

// Compute runs a compute phase of the given KNL class and instruction count
// on the caller's lane, recording a trace interval and the per-phase
// compute-time and instruction counters (the live-IPC inputs). It reports
// whether the phase is done (see Ctx).
func (ctx *Ctx) Compute(phase string, class knl.Class, instr float64) bool {
	if ctx.at == computing {
		ctx.goOn("Compute")
	} else {
		ctx.start = ctx.Proc.Now()
		ctx.Proc.Compute(vtime.Job{Work: instr, Class: int(class), Lane: ctx.Lane})
		if ctx.Proc.Suspended() {
			ctx.at = computing
			return false
		}
	}
	ctx.at = idle
	start, end := ctx.start, ctx.Proc.Now()
	if ctx.W.Sink != nil && end > start {
		ctx.W.Sink.Record(trace.Interval{
			Lane: ctx.Lane, Start: start, End: end,
			Kind: trace.KindCompute, Phase: phase, Class: int(class), Instr: instr,
		})
	}
	pm := phaseHandles.Get(phase, newPhaseMetrics)
	pm.seconds.Add(end - start)
	pm.instr.Add(instr)
	return true
}

// Comm is a communicator: an ordered subset of world ranks.
type Comm struct {
	_     vtime.NoCopy
	w     *World
	id    string
	ranks []int        // world ranks, in communicator order
	index map[int]int  // world rank -> comm rank
	m     *commMetrics // the communicator's telemetry handles
}

// CommWorld returns the communicator containing every rank.
func (w *World) CommWorld() *Comm {
	ranks := make([]int, w.Size)
	for i := range ranks {
		ranks[i] = i
	}
	return w.newComm("world", ranks)
}

func (w *World) newComm(id string, ranks []int) *Comm {
	c := &Comm{w: w, id: id, ranks: ranks, index: make(map[int]int, len(ranks)), m: commHandles.Get(id, newCommMetrics)}
	for i, r := range ranks {
		if r < 0 || r >= w.Size {
			panic(fmt.Sprintf("mpi: comm %s contains rank %d outside world of size %d", id, r, w.Size))
		}
		if prev, dup := c.index[r]; dup {
			panic(fmt.Sprintf("mpi: comm %s contains rank %d twice (positions %d and %d)", id, r, prev, i))
		}
		c.index[r] = i
	}
	return c
}

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.ranks) }

// RankIn returns the communicator rank of the calling context. It panics if
// the caller is not a member.
func (c *Comm) RankIn(ctx *Ctx) int {
	r, ok := c.index[ctx.Rank]
	if !ok {
		panic(fmt.Sprintf("mpi: rank %d not in comm %s", ctx.Rank, c.id))
	}
	return r
}

// NewSubComm deterministically builds a sub-communicator from explicit world
// ranks. All members must create it with identical arguments (it performs no
// communication); the id must be unique per distinct group.
func (w *World) NewSubComm(id string, ranks []int) *Comm {
	return w.newComm(id, ranks)
}
