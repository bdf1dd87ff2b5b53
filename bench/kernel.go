package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"repro/internal/fft"
	"repro/internal/par"
)

// batchPlan is the part of Plan, Plan2D and Plan3D the kernel workload uses.
type batchPlan interface {
	TransformBatch(data []complex128, count int, sign fft.Sign)
	Flops() float64
}

// kernelShape is one of the six batches an op of kernel_batch transforms.
// Together they cover every radix family and layout the fft policy can pick.
type kernelShape struct {
	name string
	dims []int
	rows int
	// Span names of the shape's two passes, built once so that an untraced
	// op allocates nothing for them.
	forwardSpan, backwardSpan string
}

// The batches are a sixteenth of the sizes ISSUE 12 first named (at least one
// row), 1.4 MiB in all, so that the six stay in the two cores' 2 MiB L2
// caches. At the full 18 MiB the op streamed through the host's shared L3,
// and its speed followed the neighbours' memory traffic: one commit took 31
// or 53 ms per op depending on the quarter of an hour (see README.md).
var kernelShapes = func() []kernelShape {
	shapes := []kernelShape{
		{name: "z120", dims: []int{120}, rows: 128},       // the paper's Z sticks at 80 Ry / 20 bohr
		{name: "xy120", dims: []int{120, 120}, rows: 1},   // the paper's XY planes
		{name: "box32", dims: []int{32, 32, 32}, rows: 1}, // 3-D boxes
		{name: "p4096", dims: []int{4096}, rows: 4},       // large power of two: planar (SoA) path
		{name: "p64", dims: []int{64}, rows: 128},         // small power of two: AoS path
		{name: "b1009", dims: []int{1009}, rows: 2},       // prime length: Bluestein
	}
	for i := range shapes {
		shapes[i].forwardSpan = "fft.forward." + shapes[i].name
		shapes[i].backwardSpan = "fft.backward." + shapes[i].name
	}
	return shapes
}()

// size is the length of one transform of the shape.
func (s kernelShape) size() int {
	n := 1
	for _, d := range s.dims {
		n *= d
	}
	return n
}

// nlogn is N·log₂N summed over the rows of the batch, the ROADMAP's common
// unit of kernel work.
func (s kernelShape) nlogn() float64 {
	n := float64(s.size())
	return float64(s.rows) * n * math.Log2(n)
}

// get looks the shape's plan up in the cache.
func (s kernelShape) get(c *fft.Cache) batchPlan {
	switch len(s.dims) {
	case 1:
		return c.Get(s.dims[0])
	case 2:
		return c.Get2D(s.dims[0], s.dims[1])
	default:
		return c.Get3D(s.dims[0], s.dims[1], s.dims[2])
	}
}

// kernelWorkload runs the fft batch drivers in process through one
// fft.Cache; no server and no simulator take part.
type kernelWorkload struct {
	seed int64
	env  env

	cache  *fft.Cache
	data   [][]complex128 // working arrays, transformed in place
	orig   [][]complex128 // the inputs, for the round-trip check
	dftRef [][]complex128 // refBins of row 0 of each 1-D shape (nil otherwise)
	ops    int
}

// refBins is how many output bins of a row are checked against the
// definition of the DFT. A full O(N²) reference of the 4096-point row would
// cost more than the warm-up it sits beside in setup_s; a wrong butterfly
// or twiddle disturbs nearly every bin, so a spread of them is enough.
const refBins = 16

// refBin is the index of the j-th checked bin of an n-point transform.
func refBin(j, n int) int { return (j*n/refBins + j) % n }

// dftBins evaluates the forward DFT sum directly at the checked bins.
func dftBins(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, refBins)
	for j := range out {
		k := refBin(j, n)
		for i, v := range x {
			ang := -2 * math.Pi * float64(i*k%n) / float64(n)
			out[j] += v * complex(math.Cos(ang), math.Sin(ang))
		}
	}
	return out
}

// binsMatch compares the checked bins of a transformed row with ref,
// relative to the largest reference magnitude.
func binsMatch(row, ref []complex128) bool {
	scale, worst := 0.0, 0.0
	for j, want := range ref {
		scale = math.Max(scale, cmplx.Abs(want))
		worst = math.Max(worst, cmplx.Abs(row[refBin(j, len(row))]-want))
	}
	return worst <= tolerance*scale
}

// setup draws the inputs from the seed, computes the DFT references, builds
// the six plans through a fresh cache and runs the fixed warm-up.
func (w *kernelWorkload) setup() error {
	rng := rand.New(rand.NewSource(w.seed))
	w.cache = new(fft.Cache)
	w.data, w.orig, w.dftRef = nil, nil, nil
	for _, s := range kernelShapes {
		x := randomData(rng, s.size()*s.rows)
		w.orig = append(w.orig, x)
		w.data = append(w.data, append([]complex128(nil), x...))
		var ref []complex128
		if len(s.dims) == 1 {
			ref = dftBins(x[:s.size()])
		}
		w.dftRef = append(w.dftRef, ref)
		s.get(w.cache)
	}
	w.ops = 0
	for i := 0; i < w.env.warmKernelOps; i++ {
		if _, _, ok := w.one(nil); !ok {
			return fmt.Errorf("kernel_batch: warm-up op %d produced wrong output", i)
		}
	}
	return nil
}

func (w *kernelWorkload) teardown() {}

// one runs one op — each of the six batches forward, then backward with 1/N
// scaling, a batch's two passes back to back while it is in cache — and
// checks it: after a forward pass row 0 of a 1-D batch against the DFT sum
// at refBins bins, and after the op the round trip against the input
// (every verifyEvery-th op over all the data, otherwise over row 0).
func (w *kernelWorkload) one(tr *tracer) (start, end time.Time, ok bool) {
	op := w.ops
	w.ops++
	ok = true
	start = time.Now()
	id := tr.reserve("op", op, start)
	for i, s := range kernelShapes {
		p := s.get(w.cache)
		t := time.Now()
		p.TransformBatch(w.data[i], s.rows, fft.Forward)
		mid := time.Now()
		tr.add(s.forwardSpan, id, op, t, mid)
		if ref := w.dftRef[i]; ref != nil && !binsMatch(w.data[i][:s.size()], ref) {
			ok = false
		}
		t = time.Now()
		p.TransformBatch(w.data[i], s.rows, fft.Backward)
		fft.Scale(w.data[i], 1/float64(s.size()))
		tr.add(s.backwardSpan, id, op, t, time.Now())
	}
	end = time.Now()
	for i, s := range kernelShapes {
		n := s.size()
		if op%verifyEvery == 0 {
			n = len(w.data[i])
		}
		if maxAbsDiff(w.data[i][:n], w.orig[i][:n]) > tolerance {
			ok = false
		}
	}
	verified := time.Now()
	tr.add("verify", id, op, end, verified)
	tr.finish(id, verified, "")
	return start, end, ok
}

// cpuBlock is the number of consecutive ops whose CPU time is read together:
// long enough (some 60 ms) that the kernel's tick-driven accounting of the
// helper thread is off by little, short enough to fall between the host's
// bursts.
const cpuBlock = 16

// run repeats the op for d. The phase is cut into one-second windows and the
// timing metrics are built on each window's fastest op (measurement.quiet).
func (w *kernelWorkload) run(d time.Duration, tr *tracer) (*measurement, error) {
	m := &measurement{quiet: true, limitMS: limitKernelBatch, samples: make([]sample, 0, 8192), lagMS: make([]float64, 0, 8192)}
	n := max(1, int(d/time.Second))
	done := make(chan struct{})
	t0 := time.Now()
	go func() {
		_ = sampleWindows(t0, d, n, m.selfEdge) // selfEdge cannot fail
		close(done)
	}()
	prevEnd, blockCPU := t0, selfCPUSeconds()
	for i := 1; time.Since(t0) < d; i++ {
		start, end, ok := w.one(tr)
		m.record(sample{start: start, end: end, ok: ok}, start.Sub(prevEnd))
		prevEnd = end
		if i%cpuBlock == 0 {
			cpu := selfCPUSeconds()
			m.cpuBlocks = append(m.cpuBlocks, (cpu-blockCPU)*1e3/cpuBlock)
			blockCPU = cpu
		}
	}
	<-done
	m.clientCPU = m.cpuAt[n] - m.cpuAt[0]
	return m, nil
}

// kernelLayer measures the fft and par layers by direct calls on the
// workload's shapes and data.
func kernelLayer(seed int64, out map[string]metric) {
	w := &kernelWorkload{seed: seed}
	_ = w.setup() // no warm-up ops: env is zero

	// Per shape: forward batches for a fixed time, median per N·log₂N.
	var opSeconds, opFlops, opBytes float64
	for i, s := range kernelShapes {
		p := s.get(w.cache)
		var ts []float64
		for begin := time.Now(); len(ts) < 5 || time.Since(begin) < 250*time.Millisecond; {
			t := time.Now()
			p.TransformBatch(w.data[i], s.rows, fft.Forward)
			ts = append(ts, time.Since(t).Seconds())
		}
		copy(w.data[i], w.orig[i])
		out["fft.ns_per_nlogn."+s.name] = metric{median(ts) * 1e9 / s.nlogn(), "ns"}
		opSeconds += 2 * median(ts)
		opFlops += 2 * p.Flops() * float64(s.rows)
		opBytes += 2 * 2 * 16 * float64(s.size()*s.rows) // read + write, both directions
	}
	out["fft.gflops_computed"] = metric{opFlops / opSeconds / 1e9, "GFLOP/s"}
	out["fft.bytes_per_op_computed"] = metric{opBytes, "B"}

	// The batch driver against a loop of single transforms, on the Z sticks.
	z, zdata := kernelShapes[0], w.data[0]
	zplan := w.cache.Get(z.dims[0])
	batch := medianSeconds(9, func() { zplan.TransformBatch(zdata, z.rows, fft.Forward) })
	loop := medianSeconds(9, func() {
		for r := 0; r < z.rows; r++ {
			zplan.Transform(zdata[r*z.size():(r+1)*z.size()], fft.Forward)
		}
	})
	copy(zdata, w.orig[0])
	out["fft.batch_vs_loop"] = metric{batch / loop, "ratio"}

	out["fft.plan_build_ms"] = metric{1e3 * medianSeconds(5, func() {
		fresh := new(fft.Cache)
		for _, s := range kernelShapes {
			s.get(fresh)
		}
	}), "ms"}
	const hits = 1 << 20
	t := time.Now()
	for i := 0; i < hits; i++ {
		w.cache.Get3D(32, 32, 32)
	}
	out["fft.cache_hit_ns"] = metric{float64(time.Since(t).Nanoseconds()) / hits, "ns"}

	// One whole op: its round-trip error, and its time under the par
	// layer's three modes.
	op := func() { w.one(nil) }
	def := medianSeconds(7, op)
	worst := 0.0
	for i := range w.data {
		worst = math.Max(worst, maxAbsDiff(w.data[i], w.orig[i]))
	}
	out["fft.roundtrip_max_err"] = metric{worst, "abs"}
	par.SetEnabled(false)
	serial := medianSeconds(5, op)
	par.SetEnabled(true)
	par.SetStealing(true)
	steal := medianSeconds(7, op)
	par.SetStealing(false)
	out["par.speedup"] = metric{serial / def, "ratio"}
	out["par.steal_vs_fixed"] = metric{steal / def, "ratio"}
	out["par.dispatch_us"] = metric{1e6 * medianSeconds(2000, func() {
		par.ParallelFor(1024, 1, func(lo, hi int) {})
	}), "us"}
}

// medianSeconds runs fn reps times and returns the median duration.
func medianSeconds(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t := time.Now()
		fn()
		ts[i] = time.Since(t).Seconds()
	}
	return median(ts)
}
