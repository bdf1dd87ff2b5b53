package mpi

import (
	"reflect"
	"testing"

	"repro/internal/knl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

func TestIAlltoallvOverlapsWithCompute(t *testing.T) {
	// Each rank posts an async alltoall, computes while it is in flight,
	// and then consumes the result. The compute must not wait for the
	// exchange; the callback must see the right data.
	const n = 4
	got := make([][][]complex128, n)
	computeEnd := make([]float64, n)
	commEnd := make([]float64, n)
	runWorld(t, n, func(ctx *Ctx) {
		c := ctx.W.CommWorld()
		send := make([][]complex128, n)
		for j := 0; j < n; j++ {
			send[j] = []complex128{complex(float64(ctx.Rank*10+j), 0)}
		}
		doneCh := false
		IAlltoallv(ctx, c, 0, send, vol(send), func(p *vtime.Proc, recv [][]complex128) {
			got[ctx.Rank] = recv
			commEnd[ctx.Rank] = p.Now()
			doneCh = true
		})
		ctx.Compute("work", knl.ClassVector, 1e9) // long compute, overlaps comm
		computeEnd[ctx.Rank] = ctx.Proc.Now()
		if !doneCh {
			t.Errorf("rank %d: comm not complete after long compute", ctx.Rank)
		}
	})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if got[i][j][0] != complex(float64(j*10+i), 0) {
				t.Fatalf("recv[%d][%d] = %v", i, j, got[i][j])
			}
		}
		// The communication completed strictly before the compute did:
		// it was hidden.
		if commEnd[i] >= computeEnd[i] {
			t.Fatalf("rank %d: comm ended at %v, compute at %v — no overlap", i, commEnd[i], computeEnd[i])
		}
	}
}

func TestIAlltoallvSilentInTrace(t *testing.T) {
	_, tr := runWorld(t, 2, func(ctx *Ctx) {
		c := ctx.W.CommWorld()
		send := [][]complex128{make([]complex128, 100), make([]complex128, 100)}
		fulfilled := false
		IAlltoallv(ctx, c, 0, send, vol(send), func(p *vtime.Proc, _ [][]complex128) {
			fulfilled = true
		})
		ctx.Compute("work", knl.ClassVector, 1e8)
		if !fulfilled {
			t.Error("async comm incomplete")
		}
	})
	for _, iv := range tr.Intervals {
		if iv.Kind == trace.KindMPISync || iv.Kind == trace.KindMPITransfer {
			t.Fatalf("async collective recorded on a lane: %+v", iv)
		}
	}
}

// TestICollectiveCostCompletes: a posted exchange without payload — the
// cost-mode form of the task engines' asynchronous scatters — completes at
// the same virtual time as the same exchange with its payload.
func TestICollectiveCostCompletes(t *testing.T) {
	with, _ := unevenExchange(t, true, true)
	none, _ := unevenExchange(t, false, true)
	if !reflect.DeepEqual(with, none) {
		t.Errorf("completion times differ:\n with payload %v\n without      %v", with, none)
	}
}

// Concurrent collectives from threads of the same rank serialize their
// transfers on the rank's MPI endpoint: with two tagged alltoalls in flight
// per rank, one of the two transfers must end strictly after the other.
func TestEndpointSerializesConcurrentTransfers(t *testing.T) {
	p := knl.DefaultParams()
	node := knl.NewNode(p, 4)
	eng := vtime.NewEngine(node)
	tr := trace.New(4, p.Freq)
	w := NewWorld(eng, node, tr, 2, 2)
	for r := 0; r < 2; r++ {
		for th := 0; th < 2; th++ {
			r, th := r, th
			w.Spawn(r, th, func(ctx *Ctx) {
				c := ctx.W.CommWorld()
				send := [][]complex128{make([]complex128, 25000), make([]complex128, 25000)}
				Alltoallv(ctx, c, 100+th, send, vol(send))
			})
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Collect per-lane transfer intervals of rank 0 (lanes 0 and 1).
	var xfers []trace.Interval
	for _, iv := range tr.Intervals {
		if iv.Kind == trace.KindMPITransfer && iv.Lane < 2 {
			xfers = append(xfers, iv)
		}
	}
	if len(xfers) != 2 {
		t.Fatalf("expected 2 transfers on rank 0, got %d", len(xfers))
	}
	a, b := xfers[0], xfers[1]
	if a.Start > b.Start {
		a, b = b, a
	}
	if b.Start < a.End-1e-15 {
		t.Fatalf("transfers overlap on one endpoint: [%g,%g] and [%g,%g]",
			a.Start, a.End, b.Start, b.End)
	}
}

func TestAsyncAndBlockingMixMatchByTag(t *testing.T) {
	// Rank 0 posts async, rank 1 calls blocking — same tag, must match.
	var asyncGot, blockGot [][]complex128
	runWorld(t, 2, func(ctx *Ctx) {
		c := ctx.W.CommWorld()
		send := [][]complex128{{complex(float64(ctx.Rank), 0)}, {complex(float64(ctx.Rank*100), 0)}}
		if ctx.Rank == 0 {
			done := false
			IAlltoallv(ctx, c, 5, send, vol(send), func(p *vtime.Proc, recv [][]complex128) {
				asyncGot = recv
				done = true
			})
			ctx.Compute("w", knl.ClassVector, 1e8)
			if !done {
				t.Error("async incomplete")
			}
		} else {
			blockGot = Alltoallv(ctx, c, 5, send, vol(send))
		}
	})
	if !reflect.DeepEqual(asyncGot, [][]complex128{{0}, {1}}) {
		t.Fatalf("async got %v", asyncGot)
	}
	if !reflect.DeepEqual(blockGot, [][]complex128{{0}, {100}}) {
		t.Fatalf("blocking got %v", blockGot)
	}
}
