package fft

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/par"
)

func allocVec(n int) []complex128 {
	return randVec(rand.New(rand.NewSource(7)), n)
}

// The transform entry points must be allocation-free in steady state: the
// hot loops of the simulated pipeline call them millions of times, and any
// per-call garbage would dominate the host-side profile. Scratch comes from
// per-plan sync.Pools, so after a warm-up call every path runs on recycled
// buffers.

func assertZeroAllocs(t *testing.T, name string, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector; the pins only hold in normal builds")
	}
	if avg := allocsPerRun(fn); avg != 0 {
		t.Errorf("%s: %v allocs per run, want 0", name, avg)
	}
}

// allocsPerRun is one AllocsPerRun reading of fn after a warm-up call.
func allocsPerRun(fn func()) float64 {
	fn() // warm the scratch pools
	return testing.AllocsPerRun(20, fn)
}

// allocSink keeps TestAllocPinCanFail's allocation on the heap.
var allocSink []complex128

// TestAllocPinCanFail is the seeded violation of the pins: a call that
// allocates once per run reads one allocation.
func TestAllocPinCanFail(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	if got := allocsPerRun(func() { allocSink = make([]complex128, 8) }); got != 1 {
		t.Errorf("a call that allocates once reads %v allocations per run, want 1", got)
	}
}

// zeroAllocPlan is a 1-D plan of the zero-allocation pins, built with
// newPlanRadix.
type zeroAllocPlan struct {
	n int
	r radix
}

// autoZeroAllocPlans reach both radix families PickRadix returns, short
// of Bluestein: powers of two, lengths with 3 and 5, and the generic
// radices 7, 11 and 13.
var autoZeroAllocPlans = []zeroAllocPlan{
	{4, radixAuto},    // mixed: small power of two
	{64, radixAuto},   // radix8: small power of two
	{128, radixAuto},  // mixed: power of two from mixedMinPow2 on
	{120, radixAuto},  // radix8: with 3 and 5
	{56, radixAuto},   // radix8: with the generic radix 7
	{1001, radixAuto}, // mixed: generic radices 7, 11 and 13
	// mixed with 3 and 5; 15, 75, 135 and 225 end on a radix-3 stage and
	// 125 on a radix-5 one.
	{15, radixAuto}, {60, radixAuto}, {75, radixAuto}, {90, radixAuto},
	{125, radixAuto}, {135, radixAuto}, {225, radixAuto}, {486, radixAuto},
}

// zeroAllocRows transforms fill a full fan-out grain plus a partial tail.
const zeroAllocRows = grainBatchSticks + 5

// zeroAllocEntry is a 1-D transform entry point. data holds zeroAllocRows
// transforms of the plan's length.
type zeroAllocEntry struct {
	name string
	run  func(p *Plan, data []complex128, s Sign)
}

var (
	transformEntry = zeroAllocEntry{"Transform", func(p *Plan, data []complex128, s Sign) {
		p.Transform(data[:p.n], s)
	}}
	transformManyEntry = zeroAllocEntry{"TransformMany", func(p *Plan, data []complex128, s Sign) {
		p.TransformMany(data, zeroAllocRows, s)
	}}
	oneChunkBatchEntry = zeroAllocEntry{"TransformBatch", func(p *Plan, data []complex128, s Sign) {
		p.TransformBatch(data, grainBatchSticks, s)
	}}
)

// pinBothSigns pins run to zero allocations forward and backward.
func pinBothSigns(t *testing.T, name string, run func(Sign)) {
	t.Helper()
	assertZeroAllocs(t, name+" forward", func() { run(Forward) })
	assertZeroAllocs(t, name+" backward", func() { run(Backward) })
}

// pinPlans pins every entry on every plan in both directions.
func pinPlans(t *testing.T, plans []zeroAllocPlan, entries ...zeroAllocEntry) {
	t.Helper()
	for _, pc := range plans {
		p := newPlanRadix(pc.n, pc.r)
		data := allocVec(pc.n * zeroAllocRows)
		for _, e := range entries {
			pinBothSigns(t, fmt.Sprintf("%s %d/%s", e.name, pc.n, p.radix), func(s Sign) { e.run(p, data, s) })
		}
	}
}

// TestTransformZeroAllocs pins Plan.Transform on autoZeroAllocPlans and
// checks that those plans reach both radix families. None of the entry
// points may allocate once the scratch pools are warm.
func TestTransformZeroAllocs(t *testing.T) {
	families := map[radix]bool{}
	for _, pc := range autoZeroAllocPlans {
		families[newPlanRadix(pc.n, pc.r).radix] = true
	}
	if !families[radixMixed] || !families[radix8] || len(families) != 2 {
		t.Errorf("the radixAuto plans reach %v, want both radix families", families)
	}
	pinPlans(t, autoZeroAllocPlans, transformEntry)
}

func TestTransformManyZeroAllocs(t *testing.T) {
	pinPlans(t, autoZeroAllocPlans, transformManyEntry, oneChunkBatchEntry)
}

func TestTransformBluesteinZeroAllocs(t *testing.T) {
	bluestein := []zeroAllocPlan{{97, radixAuto}} // prime > maxDirectRadix
	if p := newPlanRadix(97, radixAuto); p.blu == nil {
		t.Fatalf("plan 97 has no Bluestein path")
	}
	pinPlans(t, bluestein, transformEntry, transformManyEntry, oneChunkBatchEntry)
}

// TestVariantPlansZeroAllocs pins the plans NewPlan and the radix-8
// variant build where radixAuto would pick otherwise.
func TestVariantPlansZeroAllocs(t *testing.T) {
	variants := []zeroAllocPlan{
		{120, radixMixed}, // NewPlan(120)
		{128, radix8},     // the radix-8 variant of a mixed power of two
	}
	pinPlans(t, variants, transformEntry, transformManyEntry, oneChunkBatchEntry)
}

// TestPlan2DZeroAllocs pins Plan2D.Transform and a one-item TransformBatch.
func TestPlan2DZeroAllocs(t *testing.T) {
	for _, d := range [][2]int{{48, 45}, {120, 120}} {
		p := NewPlan2D(d[0], d[1])
		plane := allocVec(p.Size())
		shape := fmt.Sprintf("%dx%d", d[0], d[1])
		pinBothSigns(t, "Plan2D.Transform "+shape, func(s Sign) { p.Transform(plane, s) })
		pinBothSigns(t, "Plan2D.TransformBatch "+shape, func(s Sign) { p.TransformBatch(plane, 1, s) })
	}
}

// TestPlan3DZeroAllocs pins Plan3D.Transform and a one-item TransformBatch.
func TestPlan3DZeroAllocs(t *testing.T) {
	for _, d := range [][3]int{{20, 18, 24}, {16, 16, 16}} {
		p := NewPlan3D(d[0], d[1], d[2])
		box := allocVec(p.Size())
		shape := fmt.Sprintf("%dx%dx%d", d[0], d[1], d[2])
		pinBothSigns(t, "Plan3D.Transform "+shape, func(s Sign) { p.Transform(box, s) })
		pinBothSigns(t, "Plan3D.TransformBatch "+shape, func(s Sign) { p.TransformBatch(box, 1, s) })
	}
}

// batchTransformer is the TransformBatch surface Plan, Plan2D and Plan3D
// share.
type batchTransformer interface {
	TransformBatch(data []complex128, count int, sign Sign)
}

// TransformBatch at two workers, over the batches bench's kernel_batch
// transforms plus serve_json's 16³ box, allocates nothing: a batch that
// fits one chunk runs on the caller, and a fan-out hands par.ParallelFor a
// pooled call record's body and par pools its own per-call state. One
// reading holds because the pool helper marks itself spinning before it
// signals the caller, so a back-to-back fan-out never starts a goroutine.
func TestTransformBatchAllocs(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("the helper pool is empty below GOMAXPROCS 2: every fan-out starts a goroutine")
	}
	par.SetWorkers(2)
	t.Cleanup(func() { par.SetWorkers(0) })
	for _, tc := range []struct {
		name string
		p    batchTransformer
		size int
		rows int
	}{
		{"z120", NewPlan(120), 120, 128},
		{"xy120", NewPlan2D(120, 120), 120 * 120, 1},
		{"box32", NewPlan3D(32, 32, 32), 32 * 32 * 32, 1},
		{"p4096", NewPlan(4096), 4096, 4},
		{"p64", NewPlan(64), 64, 128},
		{"b1009", NewPlan(1009), 1009, 2},
		{"box16", NewPlan3D(16, 16, 16), 16 * 16 * 16, 1},
		{"xy60x4", NewPlan2D(60, 60), 60 * 60, 4},
		{"box16x4", NewPlan3D(16, 16, 16), 16 * 16 * 16, 4},
	} {
		data := allocVec(tc.size * tc.rows)
		assertZeroAllocs(t, "TransformBatch("+tc.name+")", func() {
			tc.p.TransformBatch(data, tc.rows, Forward)
			tc.p.TransformBatch(data, tc.rows, Backward)
		})
	}
}
