package mpi

import (
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

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
		IAlltoallv(ctx, c, 0, send, vol(send), DoneFunc(func(p *vtime.Proc, recv [][]complex128) {
			got[ctx.Rank] = recv
			commEnd[ctx.Rank] = p.Now()
			doneCh = true
		}))
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
		IAlltoallv(ctx, c, 0, send, vol(send), DoneFunc(func(p *vtime.Proc, _ [][]complex128) {
			fulfilled = true
		}))
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
			IAlltoallv(ctx, c, 5, send, vol(send), DoneFunc(func(p *vtime.Proc, recv [][]complex128) {
				asyncGot = recv
				done = true
			}))
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

// goroutinesSettle polls until the process runs at most baseline
// goroutines, failing after a deadline: a goroutine that Run has released
// exits just after it acknowledges, so the count may lag the return.
func goroutinesSettle(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before: Run left process goroutines behind", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// postTwice spawns a world of three ranks that each post an exchange on
// tag 0 and, once it has landed, rank 0 — or every rank, when all is set —
// posts a second one on tag 1. The ranks are goroutine processes, or
// callback processes that post one exchange per turn.
func postTwice(all, callback bool) (*vtime.Engine, []int) {
	eng, w := strictWorld(3, 1)
	landed := make([]int, 3)
	for r := 0; r < 3; r++ {
		tag := 0
		// post posts the rank's next exchange and sleeps, or reports that
		// the rank has posted all it posts.
		post := func(ctx *Ctx) bool {
			if tag == 2 || (tag == 1 && !all && ctx.Rank != 0) {
				return false
			}
			IAlltoallv(ctx, ctx.W.CommWorld(), tag, nil, 64, DoneFunc(func(*vtime.Proc, [][]complex128) {
				landed[ctx.Rank]++
			}))
			tag++
			ctx.Proc.Sleep(1)
			return true
		}
		if callback {
			ctx := new(Ctx)
			w.SpawnCallback(ctx, r, 0, vtime.ResumeFunc(func(*vtime.Proc) { post(ctx) }))
			continue
		}
		w.Spawn(r, 0, func(ctx *Ctx) {
			for post(ctx) {
			}
		})
	}
	return eng, landed
}

// TestHelpersAreReused: a rank's second post is carried out by the helper
// that delivered its first, so three ranks posting twice create three
// helpers, not six, and the run still leaves no goroutine behind.
func TestHelpersAreReused(t *testing.T) {
	baseline := runtime.NumGoroutine()
	eng, landed := postTwice(true, false)
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(landed, []int{2, 2, 2}) {
		t.Errorf("exchanges landed per rank = %v, want [2 2 2]", landed)
	}
	if got := eng.Stats().ProcsSpawned; got != 6 {
		t.Errorf("spawned %d processes, want 3 ranks and 3 helpers", got)
	}
	goroutinesSettle(t, baseline)
}

// TestReusedHelperDeadlockReport: a post whose peers never arrive still
// ends the run with a deadlock report that names the rendezvous and its
// missing ranks. The reused helper of rank 0 is the one blocked process:
// the idle helpers of ranks 1 and 2 keep no run going and are not blocked.
// The run's goroutines are released on this error return too.
func TestReusedHelperDeadlockReport(t *testing.T) {
	errs := map[bool]string{}
	for _, callback := range []bool{false, true} {
		baseline := runtime.NumGoroutine()
		eng, _ := postTwice(false, callback)
		err := eng.Run()
		var de *vtime.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("Run() = %v, want *vtime.DeadlockError", err)
		}
		want := []vtime.BlockedProc{{
			Name: "commthread.r0.1", ID: 3, Since: 1,
			WaitingOn: "mpi: Alltoallv tag 1 (call #0) on comm world: arrived 1/3, ranks [0]; missing ranks [1 2]",
		}}
		if !reflect.DeepEqual(de.Blocked, want) {
			t.Errorf("blocked = %+v\nwant      %+v", de.Blocked, want)
		}
		if got := eng.Stats().ProcsSpawned; got != 6 {
			t.Errorf("spawned %d processes, want 3 ranks and 3 helpers", got)
		}
		if got := eng.Stats().Goroutines; callback && got != 0 {
			t.Errorf("callback ranks: %d goroutines started, want none", got)
		}
		goroutinesSettle(t, baseline)
		errs[callback] = err.Error()
	}
	if errs[false] != errs[true] {
		t.Errorf("callback ranks: %q\ngoroutine ranks: %q", errs[true], errs[false])
	}
}
