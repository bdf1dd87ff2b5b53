package mpi

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/knl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// action is one step of a test rank's program. It suspends the process at
// most once, as its last move, and reports whether it is done: an action
// that is not is called again when the process next runs.
type action func(ctx *Ctx) bool

// spawn spawns the process of slot (rank, thread) of w, running steps in
// order.
func spawn(w *World, rank, thread int, steps ...action) {
	ctx, next := new(Ctx), 0
	w.Spawn(ctx, rank, thread, vtime.ResumeFunc(func(*vtime.Proc) {
		for next < len(steps) && !ctx.Proc.Suspended() {
			if steps[next](ctx) {
				next++
			}
		}
	}))
}

// do is an action that runs f.
func do(f func(ctx *Ctx)) action { return func(ctx *Ctx) bool { f(ctx); return true } }

// sleep is an action that sleeps for d.
func sleep(d vtime.Time) action { return do(func(ctx *Ctx) { ctx.Proc.Sleep(d) }) }

// compute is an action that runs a compute phase.
func compute(phase string, class knl.Class, instr float64) action {
	return func(ctx *Ctx) bool { return ctx.Compute(phase, class, instr) }
}

// exchange is an action that runs an Alltoallv over the world communicator
// and, if recv is set, stores the chunks it receives there.
func exchange(tag int, send [][]complex128, bytes float64, recv *[][]complex128) action {
	return func(ctx *Ctx) bool {
		got, ok := ctx.Exchange(ctx.W.CommWorld(), tag, send, bytes)
		if ok && recv != nil {
			*recv = got
		}
		return ok
	}
}

// runWorld spawns size single-threaded ranks, each running the steps
// program returns for it, and drives the simulation to completion.
func runWorld(t *testing.T, size int, program func(rank int) []action) (*World, *trace.Trace) {
	t.Helper()
	p := knl.DefaultParams()
	node := knl.NewNode(p, size)
	eng := vtime.NewEngine(node)
	tr := trace.New(size, p.Freq)
	w := NewWorld(eng, node, tr, size, 1)
	for r := 0; r < size; r++ {
		spawn(w, r, 0, program(r)...)
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return w, tr
}

// vol is the byte volume of a payload, the figure Alltoallv must be told.
func vol(send [][]complex128) float64 {
	n := 0
	for _, s := range send {
		n += len(s)
	}
	return float64(n * elemBytes)
}

// TestBarrierSynchronizes: a zero-volume Alltoallv is the kernel's barrier;
// no rank leaves it before the last one arrives.
func TestBarrierSynchronizes(t *testing.T) {
	ends := make([]float64, 8)
	runWorld(t, 8, func(rank int) []action {
		return []action{
			sleep(float64(rank)), // staggered arrivals
			exchange(0, nil, 0, nil),
			do(func(ctx *Ctx) { ends[rank] = ctx.Proc.Now() }),
		}
	})
	for r, e := range ends {
		if e < 7 {
			t.Fatalf("rank %d left the exchange at %v before the last arrival at 7", r, e)
		}
		if math.Abs(e-ends[0]) > 1e-9 {
			t.Fatalf("ranks left the exchange at different times: %v", ends)
		}
	}
}

func TestAlltoallvDataMovement(t *testing.T) {
	const n = 5
	got := make([][][]complex128, n)
	runWorld(t, n, func(rank int) []action {
		send := make([][]complex128, n)
		for j := 0; j < n; j++ {
			send[j] = []complex128{complex(float64(rank*100+j), 0)}
		}
		return []action{exchange(0, send, vol(send), &got[rank])}
	})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			want := complex(float64(j*100+i), 0) // rank j sent (j*100+i) to rank i
			if got[i][j][0] != want {
				t.Fatalf("recv[%d][%d] = %v, want %v", i, j, got[i][j], want)
			}
		}
	}
}

func TestAlltoallvUnevenCounts(t *testing.T) {
	const n = 3
	got := make([][][]complex128, n)
	runWorld(t, n, func(rank int) []action {
		send := make([][]complex128, n)
		for j := 0; j < n; j++ {
			// rank i sends i+1 copies of value i*10+j to rank j
			for k := 0; k <= rank; k++ {
				send[j] = append(send[j], complex(float64(rank*10+j), 0))
			}
		}
		return []action{exchange(0, send, vol(send), &got[rank])}
	})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if len(got[i][j]) != j+1 {
				t.Fatalf("recv[%d][%d] has %d elems, want %d", i, j, len(got[i][j]), j+1)
			}
			if got[i][j][0] != complex(float64(j*10+i), 0) {
				t.Fatalf("recv[%d][%d][0] = %v", i, j, got[i][j][0])
			}
		}
	}
}

func TestConcurrentTaggedCollectives(t *testing.T) {
	// Two threads per rank issue Alltoalls on the same communicator with
	// different tags concurrently; matching must pair them by tag.
	p := knl.DefaultParams()
	node := knl.NewNode(p, 4)
	eng := vtime.NewEngine(node)
	w := NewWorld(eng, node, nil, 2, 2)
	results := make([][][]complex128, 4)
	for r := 0; r < 2; r++ {
		for th := 0; th < 2; th++ {
			tag := 100 + th
			v := complex(float64(r*10+tag), 0)
			send := [][]complex128{{v}, {v}}
			steps := []action{exchange(tag, send, vol(send), &results[w.Lane(r, th)])}
			if th == 1 {
				steps = append([]action{sleep(0.5)}, steps...) // desynchronize the two threads
			}
			spawn(w, r, th, steps...)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for lane, res := range results {
		th := lane % 2
		tag := 100 + th
		for j := 0; j < 2; j++ {
			if res[j][0] != complex(float64(j*10+tag), 0) {
				t.Fatalf("lane %d recv[%d] = %v, want %d", lane, j, res[j], j*10+tag)
			}
		}
	}
}

func TestTraceRecordsSyncAndTransfer(t *testing.T) {
	_, tr := runWorld(t, 4, func(rank int) []action {
		send := [][]complex128{make([]complex128, 1000), make([]complex128, 1000), make([]complex128, 1000), make([]complex128, 1000)}
		return []action{sleep(float64(rank)), exchange(0, send, vol(send), nil)}
	})
	sync := tr.TimeByKind(trace.KindMPISync)
	xfer := tr.TimeByKind(trace.KindMPITransfer)
	// Rank 0 arrived first: it waited ~3s. Rank 3 arrived last: ~0 wait.
	if sync[0] < 2.9 || sync[3] > 0.01 {
		t.Fatalf("sync times %v", sync)
	}
	for r, x := range xfer {
		if x <= 0 {
			t.Fatalf("rank %d transfer time %v", r, x)
		}
	}
}

func TestComputeRecordsTrace(t *testing.T) {
	_, tr := runWorld(t, 2, func(int) []action {
		return []action{compute("fft-z", knl.ClassStream, 1e6)}
	})
	if got := tr.TotalInstr(); math.Abs(got-2e6) > 1 {
		t.Fatalf("total instr %v, want 2e6", got)
	}
	for _, iv := range tr.Intervals {
		if iv.Kind == trace.KindCompute && iv.Phase != "fft-z" {
			t.Fatalf("unexpected phase %q", iv.Phase)
		}
	}
}

func TestSequentialCollectivesSameTag(t *testing.T) {
	// Repeated exchanges with the same tag must match generation by
	// generation even when ranks race ahead.
	counts := make([]int, 3)
	runWorld(t, 3, func(rank int) []action {
		var steps []action
		for i := 0; i < 10; i++ {
			steps = append(steps, exchange(0, nil, 0, nil), do(func(*Ctx) { counts[rank]++ }))
		}
		return steps
	})
	for r, n := range counts {
		if n != 10 {
			t.Fatalf("rank %d completed %d exchanges", r, n)
		}
	}
}

// TestCollectiveCost: the charge of an exchange is a function of the
// stated volumes alone. The same uneven exchange leaves every rank at the
// same virtual time and records the same trace with its payload as without
// it.
func TestCollectiveCost(t *testing.T) {
	with, withTrace := unevenExchange(t, true, false)
	none, noneTrace := unevenExchange(t, false, false)
	if !reflect.DeepEqual(with, none) {
		t.Errorf("completion times differ:\n with payload %v\n without      %v", with, none)
	}
	if !reflect.DeepEqual(withTrace, noneTrace) {
		t.Errorf("traces differ with and without payload")
	}
}

// unevenExchange runs one exchange of uneven per-rank volumes over four
// staggered ranks, with or without its payload, in place or posted, and
// returns each rank's completion time and the trace.
func unevenExchange(t *testing.T, payload, posted bool) ([]float64, []trace.Interval) {
	const n = 4
	ends := make([]float64, n)
	_, tr := runWorld(t, n, func(rank int) []action {
		send := make([][]complex128, n)
		for j := range send {
			send[j] = make([]complex128, 1000*(rank+1)+j)
		}
		bytes := vol(send)
		if !payload {
			send = nil
		}
		done := func(p *vtime.Proc, recv [][]complex128) {
			if (recv != nil) != payload {
				t.Errorf("rank %d: payload %v, received %d chunks", rank, payload, len(recv))
			}
			ends[rank] = p.Now()
		}
		if !posted {
			var recv [][]complex128
			return []action{sleep(1e-4 * float64(rank)), exchange(0, send, bytes, &recv),
				do(func(ctx *Ctx) { done(ctx.Proc, recv) })}
		}
		return []action{sleep(1e-4 * float64(rank)), do(func(ctx *Ctx) {
			IAlltoallv(ctx, ctx.W.CommWorld(), 0, send, bytes, DoneFunc(done))
		}), compute("work", knl.ClassVector, 1e9)}
	})
	for r, e := range ends {
		if !(e > 0) {
			t.Fatalf("rank %d: exchange never completed", r)
		}
	}
	return ends, tr.Intervals
}

// Property: Alltoallv is its own inverse permutation — applying it twice
// with transposed payloads returns every element home, for random sizes.
func TestPropertyAlltoallvTranspose(t *testing.T) {
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%6 + 2
		rng := rand.New(rand.NewSource(seed))
		payload := make([][][]complex128, n) // [src][dst]
		for i := 0; i < n; i++ {
			payload[i] = make([][]complex128, n)
			for j := 0; j < n; j++ {
				sz := rng.Intn(4)
				for k := 0; k < sz; k++ {
					payload[i][j] = append(payload[i][j], complex(float64(i*1000+j*10+k), 0))
				}
			}
		}
		roundtrip := make([][][]complex128, n)
		p := knl.DefaultParams()
		node := knl.NewNode(p, n)
		eng := vtime.NewEngine(node)
		w := NewWorld(eng, node, nil, n, 1)
		for r := 0; r < n; r++ {
			var recv [][]complex128
			spawn(w, r, 0, exchange(0, payload[r], vol(payload[r]), &recv),
				// Send everything back where it came from.
				func(ctx *Ctx) bool { return exchange(1, recv, vol(recv), &roundtrip[r])(ctx) })
		}
		if err := eng.Run(); err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !reflect.DeepEqual(roundtrip[i][j], payload[i][j]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
