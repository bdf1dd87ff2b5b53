package mpi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/knl"
	"repro/internal/vtime"
)

// strictWorld builds a strict world without running it, so tests can spawn
// deliberately broken rank programs and inspect the engine error.
func strictWorld(size, threadsPerRank int) (*vtime.Engine, *World) {
	p := knl.DefaultParams()
	node := knl.NewNode(p, size*threadsPerRank)
	eng := vtime.NewEngine(node)
	w := NewWorld(eng, node, nil, size, threadsPerRank)
	w.Strict = true
	return eng, w
}

func mustContain(t *testing.T, msg string, subs ...string) {
	t.Helper()
	for _, s := range subs {
		if !strings.Contains(msg, s) {
			t.Errorf("error %q\n  missing %q", msg, s)
		}
	}
}

// TestMismatchedTagDeadlockReport is the headline failure mode: two ranks
// call the same collective with different tags. Instead of hanging, the run
// ends with a structured per-rank dump naming each blocked rank, the tag it
// used and which ranks its rendezvous is still missing.
func TestMismatchedTagDeadlockReport(t *testing.T) {
	errs := map[bool]string{}
	for _, callback := range []bool{false, true} {
		eng, w := strictWorld(2, 1)
		for r, tag := range []int{1, 2} {
			if callback {
				// The exchange in steps: the rank's one turn starts it, and
				// the rendezvous never lets it resume.
				ctx := new(Ctx)
				w.SpawnCallback(ctx, r, 0, vtime.ResumeFunc(func(*vtime.Proc) {
					ctx.Exchange(ctx.W.CommWorld(), tag, nil, 0)
				}))
				continue
			}
			w.Spawn(r, 0, func(ctx *Ctx) { Alltoallv(ctx, ctx.W.CommWorld(), tag, nil, 0) })
		}
		err := eng.Run()
		var de *vtime.DeadlockError
		if !errors.As(err, &de) {
			t.Fatalf("Run() = %v, want *vtime.DeadlockError", err)
		}
		if len(de.Blocked) != 2 {
			t.Fatalf("blocked %d processes, want 2:\n%v", len(de.Blocked), err)
		}
		for _, b := range de.Blocked {
			if !strings.Contains(b.WaitingOn, "arrived 1/2") {
				t.Errorf("rank dump %q does not report arrival count", b.WaitingOn)
			}
		}
		mustContain(t, err.Error(),
			"rank0.t0", "rank1.t0",
			"Alltoallv tag 1", "Alltoallv tag 2",
			"missing ranks")
		errs[callback] = err.Error()
	}
	if errs[false] != errs[true] {
		t.Errorf("callback ranks: %q\ngoroutine ranks: %q", errs[true], errs[false])
	}
}

// TestBlockingAlltoallvOnCallbackIsError: the blocking Alltoallv cannot
// return on a callback process, whose exchange has to go on in later
// turns; the run ends with an error that names the process and Exchange.
func TestBlockingAlltoallvOnCallbackIsError(t *testing.T) {
	eng, w := strictWorld(2, 1)
	for r := 0; r < 2; r++ {
		ctx := new(Ctx)
		w.SpawnCallback(ctx, r, 0, vtime.ResumeFunc(func(*vtime.Proc) {
			Alltoallv(ctx, ctx.W.CommWorld(), 0, nil, 0)
		}))
	}
	err := eng.Run()
	if err == nil {
		t.Fatal("Run() = nil, want an error")
	}
	mustContain(t, err.Error(), `process "rank0.t0" is a callback process`, "Ctx.Exchange")
}

// TestSkippedAlltoallvDeadlockReport: a rank that never reaches the
// collective — a rank-dependent branch around Alltoallv — leaves the other
// ranks blocked in the rendezvous, and the run ends with a deadlock report
// naming the rank that is missing.
func TestSkippedAlltoallvDeadlockReport(t *testing.T) {
	eng, w := strictWorld(3, 1)
	for r := 0; r < 3; r++ {
		w.Spawn(r, 0, func(ctx *Ctx) {
			if ctx.Rank != 2 {
				Alltoallv(ctx, ctx.W.CommWorld(), 7, nil, 0)
			}
		})
	}
	err := eng.Run()
	var de *vtime.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *vtime.DeadlockError", err)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("blocked %d processes, want 2:\n%v", len(de.Blocked), err)
	}
	mustContain(t, err.Error(),
		"rank0.t0", "rank1.t0",
		"Alltoallv tag 7", "arrived 2/3", "missing ranks [2]")
}

// TestAlltoallvChunkCountPanic: handing Alltoallv fewer chunks than the
// communicator has ranks is a structured error naming the offender, not a
// slice-index crash or a hang.
func TestAlltoallvChunkCountPanic(t *testing.T) {
	eng, w := strictWorld(2, 1)
	for r := 0; r < 2; r++ {
		w.Spawn(r, 0, func(ctx *Ctx) {
			Alltoallv(ctx, ctx.W.CommWorld(), 3, make([][]complex128, 1), 0)
		})
	}
	err := eng.Run()
	if err == nil {
		t.Fatal("Run() = nil, want chunk-count error")
	}
	mustContain(t, err.Error(), "sends 1 chunks for comm of size 2")
}

// TestAlltoallvVolumeMismatchPanic: a payload whose size differs from the
// volume the caller declares is a structured error in every world, strict
// or not — the declared volume is what both modes charge, so it must be
// the payload's.
func TestAlltoallvVolumeMismatchPanic(t *testing.T) {
	eng, w := strictWorld(2, 1)
	w.Strict = false
	for r := 0; r < 2; r++ {
		w.Spawn(r, 0, func(ctx *Ctx) {
			send := [][]complex128{make([]complex128, 1), make([]complex128, 1)}
			Alltoallv(ctx, ctx.W.CommWorld(), 4, send, 16)
		})
	}
	err := eng.Run()
	if err == nil {
		t.Fatal("Run() = nil, want volume mismatch error")
	}
	mustContain(t, err.Error(), "Alltoallv tag 4", "sends 32 bytes but declares 16")
}

// TestStrictConcurrentTagReuse: two threads of one rank posting the same
// (op, tag) concurrently would let generations cross-match across ranks;
// strict mode turns that into an immediate diagnostic.
func TestStrictConcurrentTagReuse(t *testing.T) {
	eng, w := strictWorld(2, 2)
	w.Spawn(0, 0, func(ctx *Ctx) { Alltoallv(ctx, ctx.W.CommWorld(), 5, nil, 0) })
	w.Spawn(0, 1, func(ctx *Ctx) {
		ctx.Proc.Sleep(1e-3) // let thread 0 post first
		Alltoallv(ctx, ctx.W.CommWorld(), 5, nil, 0)
	})
	w.Spawn(1, 0, func(ctx *Ctx) {
		ctx.Proc.Sleep(1) // arrives after the violation is detected
		Alltoallv(ctx, ctx.W.CommWorld(), 5, nil, 0)
	})
	err := eng.Run()
	if err == nil {
		t.Fatal("Run() = nil, want concurrent tag reuse error")
	}
	mustContain(t, err.Error(),
		"concurrent reuse of tag 5",
		"concurrent collectives need distinct tags")
}

// TestStrictCleanRun: a correct program passes all strict checks, including
// sequential tag reuse and uneven (but well-formed) Alltoallv payloads.
func TestStrictCleanRun(t *testing.T) {
	eng, w := strictWorld(2, 1)
	for r := 0; r < 2; r++ {
		w.Spawn(r, 0, func(ctx *Ctx) {
			c := ctx.W.CommWorld()
			Alltoallv(ctx, c, 1, nil, 0)
			Alltoallv(ctx, c, 1, nil, 0) // sequential reuse is fine
			send := make([][]complex128, 2)
			for j := range send {
				send[j] = make([]complex128, ctx.Rank+j+1) // uneven is fine
			}
			Alltoallv(ctx, c, 3, send, vol(send))
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatalf("strict clean run failed: %v", err)
	}
}
