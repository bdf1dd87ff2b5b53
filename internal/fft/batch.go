package fft

import (
	"fmt"
	"sync"

	"repro/internal/par"
)

// Host-parallel batch drivers. These are the serving-path counterparts of
// TransformMany: the rows of a batch are independent transforms, so they
// fan out over host cores via par.ParallelFor, and a lone plane or box
// fans out its own row and column passes. Plans are safe for
// concurrent use (per-call scratch comes from a pool), which makes these
// the thread-safe batch execution path the fftxd server leans on: one plan
// lookup and one fan-out amortized over the whole batch. Every worker runs
// the same per-row Transform a serial loop runs, so with
// par.SetEnabled(false) every driver reduces to the serial reference
// (TransformMany / per-item Transform), mirroring par.ParallelFor's own
// contract, and flipping -hostpar changes wall clock only, never a bit.

// grainBatchSticks is the fan-out grain of 1-D row batches: a chunk holds
// at least 32 whole transforms, so the fan-out's dispatch stays a small
// share of its time, while kernel_batch's 128-row z120 and p64 batches
// still split into four chunks for the cores to share. A batch of
// 32 rows or fewer runs on the caller.
const grainBatchSticks = 32

// grainBatchBoxes is the fan-out grain of 2-D/3-D batches: every item is
// a full plane or box transform — already far more work than the fan-out
// overhead.
const grainBatchBoxes = 1

// fan runs one pass of a plan over par.ParallelFor without allocating. Its
// pooled call records carry the pass's arguments, and each record binds
// the pass to itself once, when it is made, so the body a call hands to
// par.ParallelFor is a func value that already exists.
type fan struct{ calls sync.Pool } // *fanCall

// fanCall is one record of a fan: the arguments of a call in flight and
// the body that reads them.
type fanCall struct {
	data []complex128
	sign Sign
	body func(lo, hi int)
}

// init binds the pass the fan runs over index ranges [lo,hi).
func (f *fan) init(pass func(data []complex128, sign Sign, lo, hi int)) {
	f.calls.New = func() any {
		c := new(fanCall)
		c.body = func(lo, hi int) { pass(c.data, c.sign, lo, hi) }
		return c
	}
}

// run applies the pass to [0,n) of data in chunks of at least grain.
func (f *fan) run(data []complex128, sign Sign, n, grain int) {
	c := f.calls.Get().(*fanCall)
	c.data, c.sign = data, sign
	par.ParallelFor(n, grain, c.body)
	c.data = nil
	f.calls.Put(c)
}

// TransformBatch applies the plan in place to count contiguous rows of
// length N starting at data[0], fanning the rows out over host cores.
// Results are bit-identical to TransformMany. A batch that fits one chunk
// runs on the caller.
func (p *Plan) TransformBatch(data []complex128, count int, sign Sign) {
	if len(data) < count*p.n {
		panic("fft: TransformBatch: slice too short")
	}
	p.rows.run(data, sign, count, grainBatchSticks)
}

// rowRange transforms rows [lo,hi) of a TransformBatch.
func (p *Plan) rowRange(data []complex128, sign Sign, lo, hi int) {
	p.TransformMany(data[lo*p.n:hi*p.n], hi-lo, sign)
}

// TransformBatch applies the plane transform in place to count contiguous
// row-major planes. With host parallelism enabled the planes fan out over
// cores, each worker running the serial plane Transform; disabled, it is
// the plain per-plane reference loop. A single plane fans out its own
// passes instead: the rows as one row batch, then the column blocks.
func (p *Plan2D) TransformBatch(data []complex128, count int, sign Sign) {
	if len(data) < count*p.Size() {
		panic("fft: Plan2D.TransformBatch: slice too short")
	}
	if count == 1 {
		plane := data[:p.Size()]
		p.py.TransformBatch(plane, p.nx, sign)
		p.cols.run(plane, sign, p.colBlocks(), 1)
		return
	}
	p.items.run(data, sign, count, grainBatchBoxes)
}

// itemRange transforms planes [lo,hi) of a TransformBatch, each on the
// serial Transform.
func (p *Plan2D) itemRange(data []complex128, sign Sign, lo, hi int) {
	sz := p.Size()
	for b := lo; b < hi; b++ {
		p.Transform(data[b*sz:(b+1)*sz], sign)
	}
}

// TransformBatch applies the 3-D transform in place to count contiguous
// z-fastest boxes, one host-parallel item per box. A single box fans out
// its own passes instead: the z sticks as one row batch, then the zBlock
// plane groups.
func (p *Plan3D) TransformBatch(data []complex128, count int, sign Sign) {
	if len(data) < count*p.Size() {
		panic("fft: Plan3D.TransformBatch: slice too short")
	}
	if count == 1 {
		box := data[:p.Size()]
		p.pz.TransformBatch(box, p.nx*p.ny, sign)
		p.groups.run(box, sign, p.zGroups(), 1)
		return
	}
	p.items.run(data, sign, count, grainBatchBoxes)
}

// itemRange transforms boxes [lo,hi) of a TransformBatch, each on the
// serial Transform.
func (p *Plan3D) itemRange(data []complex128, sign Sign, lo, hi int) {
	sz := p.Size()
	for b := lo; b < hi; b++ {
		p.Transform(data[b*sz:(b+1)*sz], sign)
	}
}

// Size returns the number of elements of one transform (nx·ny).
func (p *Plan2D) Size() int { return p.nx * p.ny }

// Size returns the number of elements of one transform (nx·ny·nz).
func (p *Plan3D) Size() int { return p.nx * p.ny * p.nz }

// Dims returns the transform dimensions (nx, ny, nz).
func (p *Plan3D) Dims() (nx, ny, nz int) { return p.nx, p.ny, p.nz }

// checkDim panics on non-positive transform dimensions; the cached
// constructors call it before keying their maps so every caller gets the
// same error text.
func checkDim(n int) {
	if n <= 0 {
		panic(fmt.Sprintf("fft: invalid length %d", n))
	}
}
