package mpi

import (
	"fmt"
	"strings"

	"repro/internal/trace"
	"repro/internal/vtime"
)

// Element sizes for the cost model, in bytes.
const (
	BytesComplex128 = 16
	BytesFloat64    = 8
	BytesInt        = 8
)

type rvKey struct {
	comm string
	op   Op
	tag  int
	gen  int
}

type seqKey struct {
	comm string
	op   Op
	tag  int
	rank int
}

// rendezvous is the meeting point of one collective call instance.
type rendezvous struct {
	need     int
	payload  []any
	arrived  int
	lastAt   float64
	result   any
	transfer float64
	picked   int
	wq       vtime.WaitQueue
}

// describe renders the rendezvous state for deadlock reports: which world
// ranks have arrived and which are still missing.
func (rv *rendezvous) describe(c *Comm, op Op, tag, gen int) string {
	var arrived, missing []int
	for i, p := range rv.payload {
		if p != nil {
			arrived = append(arrived, c.ranks[i])
		} else {
			missing = append(missing, c.ranks[i])
		}
	}
	return fmt.Sprintf("mpi: collective %v tag %d (call #%d) on comm %s: arrived %d/%d, ranks %v; missing ranks %v",
		op, tag, gen, c.id, rv.arrived, rv.need, arrived, missing)
}

// costFn computes the transfer duration of a completed collective from the
// node's cost model (through the byte meter), the participant count k, the
// number of lanes currently inside MPI calls (for bandwidth sharing) and the
// gathered payloads (indexed by communicator rank).
type costFn func(m *meter, k, commLanes int, payloads []any) float64

// exchange is the generic collective rendezvous: every member of c
// contributes payload; the last arriver runs reduce over the payloads
// (indexed by communicator rank) and computes the transfer cost; everyone
// then pays the transfer time and returns the shared result. Calls with the
// same (comm, op, tag) match across ranks in per-rank call order, so
// concurrent collectives from different task threads are safe as long as
// they use distinct tags.
func (c *Comm) exchange(ctx *Ctx, op Op, tag int, payload any, cost costFn, reduce func([]any) any) any {
	w := c.w
	me := c.RankIn(ctx)
	sk := seqKey{c.id, op, tag, me}
	gen := w.callSeq[sk]
	w.callSeq[sk] = gen + 1
	key := rvKey{c.id, op, tag, gen}
	if w.Strict && gen > 0 {
		// A new call instance posted while the previous one has not yet
		// gathered all participants means two same-tag collectives are in
		// flight concurrently (different task threads of one rank): their
		// generations can cross-match across ranks and silently pair the
		// wrong calls. Sequential reuse of a tag is fine — a blocking call
		// cannot return before its own generation completes.
		if prev := w.rendezvous[rvKey{c.id, op, tag, gen - 1}]; prev != nil && prev.arrived < prev.need {
			panic(fmt.Sprintf(
				"mpi: concurrent reuse of tag %d for %v on comm %s by rank %d: call #%d posted while call #%d has only %d of %d participants (concurrent collectives need distinct tags)",
				tag, op, c.id, ctx.Rank, gen, gen-1, prev.arrived, prev.need))
		}
	}
	rv := w.rendezvous[key]
	if rv == nil {
		rv = &rendezvous{need: len(c.ranks), payload: make([]any, len(c.ranks))}
		rv.wq.Describe = func() string { return rv.describe(c, op, tag, gen) }
		w.rendezvous[key] = rv
	}
	if rv.payload[me] != nil {
		panic(fmt.Sprintf("mpi: duplicate arrival of rank %d in %s/%v tag %d", ctx.Rank, c.id, op, tag))
	}
	rv.payload[me] = payload
	rv.arrived++
	w.inComm++
	start := ctx.Proc.Now()

	if rv.arrived < rv.need {
		rv.wq.Wait(ctx.Proc)
	} else {
		rv.lastAt = ctx.Proc.Now()
		rv.result = reduce(rv.payload)
		var bytes float64
		if cost != nil && w.Node != nil {
			// Bandwidth is shared among concurrently communicating lanes,
			// but per-rank endpoint serialization means at most one
			// transfer per rank is in flight, so the sharing degree never
			// exceeds the rank count (threads and communication helpers
			// queued on their endpoint must not dilute the bandwidth).
			lanes := w.inComm
			if lanes > w.Size {
				lanes = w.Size
			}
			// The meter observes the byte volume the cost function charges
			// to the node, feeding the bytes-moved counters.
			m := &meter{node: w.Node}
			rv.transfer = cost(m, rv.need, lanes, rv.payload)
			bytes = m.bytes
		}
		// One collective instance completed: count it and its volume once.
		com := w.metricsFor(c.id, op)
		com.calls.Inc()
		if bytes > 0 {
			com.bytes.Add(bytes)
		}
		com.callBytes.Observe(bytes)
		rv.wq.WakeAll(ctx.Proc)
	}
	// Per-rank endpoint serialization: concurrent transfers issued by
	// threads of the same rank queue on the rank's MPI endpoint.
	ep := w.endpoints[ctx.Rank]
	ep.Acquire(ctx.Proc)
	syncEnd := ctx.Proc.Now()
	if rv.transfer > 0 {
		ctx.Proc.Sleep(rv.transfer)
	}
	ep.Release(ctx.Proc)
	w.inComm--
	if !ctx.Silent {
		end := ctx.Proc.Now()
		if w.Sink != nil {
			trace.Recorder{S: w.Sink, Lane: ctx.Lane}.MPI(op.Name(), c.id, tag, start, syncEnd, end)
		}
		com := w.metricsFor(c.id, op)
		com.sync.Add(syncEnd - start)
		com.xfer.Add(end - syncEnd)
	}
	res := rv.result
	rv.picked++
	if rv.picked == rv.need {
		delete(w.rendezvous, key)
	}
	return res
}

// nonNil wraps payloads so that "no payload" participants still mark arrival.
type nonNil struct{ v any }

// Barrier synchronizes all members of c.
func (c *Comm) Barrier(ctx *Ctx, tag int) {
	c.exchange(ctx, OpBarrier, tag, nonNil{},
		func(m *meter, k, lanes int, _ []any) float64 { return m.BcastTime(k, 0, lanes) },
		func([]any) any { return nil })
}

// Bcast distributes root's slice (communicator rank) to all members; only
// the root's data argument is consulted. elemBytes sizes the cost model.
func Bcast[T any](ctx *Ctx, c *Comm, tag, root int, data []T, elemBytes int) []T {
	res := c.exchange(ctx, OpBcast, tag, nonNil{data},
		func(m *meter, k, lanes int, payloads []any) float64 {
			rootData := payloads[root].(nonNil).v.([]T)
			return m.BcastTime(k, float64(len(rootData)*elemBytes), lanes)
		},
		func(all []any) any { return all[root].(nonNil).v })
	return res.([]T)
}

// Reduce combines the members' float64 vectors element-wise with op; only
// the root (communicator rank) receives the result, others get nil.
func (c *Comm) Reduce(ctx *Ctx, tag, root int, data []float64, op func(a, b float64) float64) []float64 {
	res := c.exchange(ctx, OpReduce, tag, nonNil{data},
		func(m *meter, k, lanes int, _ []any) float64 {
			return m.ReduceTime(k, float64(len(data))*BytesFloat64, lanes)
		},
		func(all []any) any { return reduceVecs(c, OpReduce, tag, all, op) })
	if c.RankIn(ctx) == root {
		return res.([]float64)
	}
	return nil
}

// Allreduce combines the members' float64 vectors element-wise with op and
// returns the result on every rank.
func (c *Comm) Allreduce(ctx *Ctx, tag int, data []float64, op func(a, b float64) float64) []float64 {
	res := c.exchange(ctx, OpAllreduce, tag, nonNil{data},
		func(m *meter, k, lanes int, _ []any) float64 {
			return m.ReduceTime(k, float64(len(data))*BytesFloat64, lanes)
		},
		func(all []any) any { return reduceVecs(c, OpAllreduce, tag, all, op) })
	return res.([]float64)
}

func reduceVecs(c *Comm, what Op, tag int, all []any, op func(a, b float64) float64) []float64 {
	var acc []float64
	for _, v := range all {
		vec := v.(nonNil).v.([]float64)
		if acc == nil {
			acc = append([]float64(nil), vec...)
			continue
		}
		if len(vec) != len(acc) {
			panic(fmt.Sprintf("mpi: %v tag %d on comm %s: vector length mismatch across ranks: %s",
				what, tag, c.id, perRankLens(c, all, func(p any) int { return len(p.(nonNil).v.([]float64)) })))
		}
		for j := range acc {
			acc[j] = op(acc[j], vec[j])
		}
	}
	return acc
}

// perRankLens renders a per-rank report of payload sizes, e.g.
// "rank 0: 4, rank 1: 3".
func perRankLens(c *Comm, all []any, size func(any) int) string {
	var sb strings.Builder
	for i, p := range all {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "rank %d: %d", c.ranks[i], size(p))
	}
	return sb.String()
}

// Sum is the element-wise addition reduction operator.
func Sum(a, b float64) float64 { return a + b }

// Max is the element-wise maximum reduction operator.
func Max(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Allgatherv gathers every member's slice on every member, indexed by
// communicator rank.
func Allgatherv[T any](ctx *Ctx, c *Comm, tag int, data []T, elemBytes int) [][]T {
	res := c.exchange(ctx, OpAllgatherv, tag, nonNil{data},
		func(m *meter, k, lanes int, payloads []any) float64 {
			var total float64
			for _, p := range payloads {
				total += float64(len(p.(nonNil).v.([]T)) * elemBytes)
			}
			return m.AlltoallTime(k, total, lanes)
		},
		func(all []any) any {
			out := make([][]T, len(all))
			for i, v := range all {
				out[i] = v.(nonNil).v.([]T)
			}
			return out
		})
	return res.([][]T)
}

// Gatherv gathers every member's slice on root (communicator rank), which
// receives the slices indexed by communicator rank; other ranks receive nil.
func Gatherv[T any](ctx *Ctx, c *Comm, tag, root int, data []T, elemBytes int) [][]T {
	all := Allgatherv(ctx, c, tag, data, elemBytes)
	if c.RankIn(ctx) == root {
		return all
	}
	return nil
}

// Scatterv distributes root's per-rank slices: rank i receives send[i].
// Only the root's send argument is consulted; others may pass nil.
func Scatterv[T any](ctx *Ctx, c *Comm, tag, root int, send [][]T, elemBytes int) []T {
	res := c.exchange(ctx, OpScatterv, tag, nonNil{send},
		func(m *meter, k, lanes int, payloads []any) float64 {
			var total float64
			for _, s := range payloads[root].(nonNil).v.([][]T) {
				total += float64(len(s) * elemBytes)
			}
			return m.AlltoallTime(k, total, lanes)
		},
		func(all []any) any { return all[root].(nonNil).v })
	rootSend := res.([][]T)
	return rootSend[c.RankIn(ctx)]
}

// Alltoallv is the workhorse of the FFT kernel: every member sends send[j]
// to communicator rank j and receives recv[j] from j. The charged volume is
// the maximum per-rank send volume, matching the bulk-synchronous behaviour
// of an on-node Alltoall. The returned slices alias the senders' buffers;
// receivers must not mutate them (the kernel copies into its own layout).
func Alltoallv[T any](ctx *Ctx, c *Comm, tag int, send [][]T, elemBytes int) [][]T {
	return alltoall(ctx, c, OpAlltoallv, tag, send, elemBytes)
}

// Alltoall exchanges equal-sized chunks: send must contain Size() chunks of
// identical length. In strict mode the equal-chunk requirement is also
// validated across ranks, with a per-rank report on mismatch.
func Alltoall[T any](ctx *Ctx, c *Comm, tag int, send [][]T, elemBytes int) [][]T {
	for _, s := range send {
		if len(s) != len(send[0]) {
			panic(fmt.Sprintf("mpi: Alltoall tag %d on comm %s: rank %d sends unequal chunk sizes (%d and %d elements); use Alltoallv",
				tag, c.id, ctx.Rank, len(send[0]), len(s)))
		}
	}
	return alltoall(ctx, c, OpAlltoall, tag, send, elemBytes)
}

// alltoall is the shared rendezvous of Alltoall and Alltoallv. The two use
// distinct Ops, so — like in real MPI — an Alltoall on one rank never
// matches an Alltoallv on another.
func alltoall[T any](ctx *Ctx, c *Comm, op Op, tag int, send [][]T, elemBytes int) [][]T {
	if len(send) != c.Size() {
		panic(fmt.Sprintf("mpi: %v tag %d on comm %s: rank %d sends %d chunks for comm of size %d",
			op, tag, c.id, ctx.Rank, len(send), c.Size()))
	}
	res := c.exchange(ctx, op, tag, nonNil{send},
		func(m *meter, k, lanes int, payloads []any) float64 {
			var maxBytes float64
			for _, p := range payloads {
				var b float64
				for _, s := range p.(nonNil).v.([][]T) {
					b += float64(len(s) * elemBytes)
				}
				if b > maxBytes {
					maxBytes = b
				}
			}
			return m.AlltoallTime(k, maxBytes, lanes)
		},
		func(all []any) any {
			if op == OpAlltoall && c.w.Strict {
				// Every chunk of every rank must have the same length.
				ref := -1
				equal := true
				for _, v := range all {
					for _, s := range v.(nonNil).v.([][]T) {
						if ref < 0 {
							ref = len(s)
						} else if len(s) != ref {
							equal = false
						}
					}
				}
				if !equal {
					panic(fmt.Sprintf("mpi: %v tag %d on comm %s: chunk size mismatch across ranks (elements per chunk): %s",
						op, tag, c.id, perRankLens(c, all, func(p any) int {
							return len(p.(nonNil).v.([][]T)[0])
						})))
				}
			}
			mat := make([][][]T, len(all))
			for i, v := range all {
				mat[i] = v.(nonNil).v.([][]T)
			}
			return mat
		})
	mat := res.([][][]T)
	me := c.RankIn(ctx)
	out := make([][]T, c.Size())
	for j := range out {
		out[j] = mat[j][me]
	}
	return out
}

// CollectiveCost performs a data-free collective: it synchronizes the
// members of c like an Alltoallv carrying bytesPerRank per rank, charging
// sync and transfer time without moving payload. The cost-only execution
// mode of the FFT engines uses it so that cost-mode and real-mode runs have
// identical timing behaviour.
func (c *Comm) CollectiveCost(ctx *Ctx, op Op, tag int, bytesPerRank float64) {
	c.exchange(ctx, op, tag, nonNil{bytesPerRank},
		func(m *meter, k, lanes int, payloads []any) float64 {
			var maxBytes float64
			for _, p := range payloads {
				if b := p.(nonNil).v.(float64); b > maxBytes {
					maxBytes = b
				}
			}
			return m.AlltoallTime(k, maxBytes, lanes)
		},
		func(all []any) any { return nil })
}

// ReduceScatter combines the members' vectors element-wise and scatters the
// result: each rank receives its contiguous share of the reduced vector
// (shares are as equal as possible, remainder to the low ranks).
func (c *Comm) ReduceScatter(ctx *Ctx, tag int, data []float64, op func(a, b float64) float64) []float64 {
	res := c.exchange(ctx, OpReduceScatter, tag, nonNil{data},
		func(m *meter, k, lanes int, _ []any) float64 {
			return m.ReduceTime(k, float64(len(data))*BytesFloat64, lanes)
		},
		func(all []any) any { return reduceVecs(c, OpReduceScatter, tag, all, op) })
	full := res.([]float64)
	k := c.Size()
	base, rem := len(full)/k, len(full)%k
	me := c.RankIn(ctx)
	lo := me*base + min(me, rem)
	sz := base
	if me < rem {
		sz++
	}
	return full[lo : lo+sz]
}

// Scan computes the inclusive prefix reduction: rank i receives the
// element-wise combination of ranks 0..i's vectors.
func (c *Comm) Scan(ctx *Ctx, tag int, data []float64, op func(a, b float64) float64) []float64 {
	res := c.exchange(ctx, OpScan, tag, nonNil{data},
		func(m *meter, k, lanes int, _ []any) float64 {
			return m.ReduceTime(k, float64(len(data))*BytesFloat64, lanes)
		},
		func(all []any) any {
			// Prefix-reduce into a matrix indexed by comm rank.
			out := make([][]float64, len(all))
			var acc []float64
			for i, v := range all {
				vec := v.(nonNil).v.([]float64)
				if acc == nil {
					acc = append([]float64(nil), vec...)
				} else {
					for j := range acc {
						acc[j] = op(acc[j], vec[j])
					}
				}
				out[i] = append([]float64(nil), acc...)
			}
			return out
		})
	return res.([][]float64)[c.RankIn(ctx)]
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
