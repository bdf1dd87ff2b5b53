package serve

import (
	"math/bits"
	"sync"
)

// Buffer recycling for the /fft transform path. A request crosses three
// large buffers — the body as read from the socket, the payload as
// []complex128 (decoded into, transformed in place, rendered from) and the
// rendered reply — and each comes from a size-classed pool, so a warmed
// server allocates none of them.
//
// Ownership is one rule: a buffer is released by the goroutine that holds
// it exclusively, and a task's payload is exclusively the HTTP handler's
// only once the handler has received the task's outcome — so the handler
// releases it then, after the reply has been written. A task whose client
// went away before its outcome arrived (the 499 path of handleFFT) is never
// released: a worker may still be transforming its payload, and the garbage
// collector takes the buffer when both are done with it.
//
// Classes are powers of two. A request for more than the largest class is
// served by a plain allocation that put then declines to keep, which bounds
// what an idle server retains; sync.Pool lets the collector reclaim the
// rest.
const (
	poolMinBytes = 4 << 10 // smallest class
	poolMaxBytes = 8 << 20 // largest class retained
)

var (
	bytePool    = newSlicePool[byte](poolMinBytes, poolMaxBytes)
	complexPool = newSlicePool[complex128](poolMinBytes/16, poolMaxBytes/16)
)

// slicePool recycles []T buffers in power-of-two capacity classes.
type slicePool[T any] struct {
	minShift int         // class 0 holds slices of capacity 1<<minShift
	classes  []sync.Pool // of *[]T; class c holds capacity 1<<(minShift+c)
	boxes    sync.Pool   // spare *[]T, so that put does not allocate one
	// poison, when set, scribbles over every buffer as it is released. Only
	// tests set it: a reply rendered from a released buffer then shows.
	poison func([]T)
}

// newSlicePool builds a pool whose classes run from minLen to maxLen
// elements, both powers of two.
func newSlicePool[T any](minLen, maxLen int) *slicePool[T] {
	minShift := bits.Len(uint(minLen)) - 1
	return &slicePool[T]{
		minShift: minShift,
		classes:  make([]sync.Pool, bits.Len(uint(maxLen))-minShift),
	}
}

// class returns the smallest class whose capacity holds n elements; it may
// lie past the last class the pool keeps.
func (p *slicePool[T]) class(n int) int {
	if n <= 1<<p.minShift {
		return 0
	}
	return bits.Len(uint(n-1)) - p.minShift
}

// get returns a buffer of length n with unspecified contents.
func (p *slicePool[T]) get(n int) []T {
	c := p.class(n)
	if c >= len(p.classes) {
		return make([]T, n)
	}
	if box, _ := p.classes[c].Get().(*[]T); box != nil {
		s := (*box)[:n]
		*box = nil
		p.boxes.Put(box)
		return s
	}
	return make([]T, n, 1<<(p.minShift+c))
}

// put releases a buffer obtained from get. The caller must hold the only
// reference to it. Buffers that are not of a kept class are left to the
// garbage collector.
func (p *slicePool[T]) put(s []T) {
	c := p.class(cap(s))
	if c >= len(p.classes) || cap(s) != 1<<(p.minShift+c) {
		return
	}
	if p.poison != nil {
		p.poison(s[:cap(s)])
	}
	box, _ := p.boxes.Get().(*[]T)
	if box == nil {
		box = new([]T)
	}
	*box = s
	p.classes[c].Put(box)
}

// grow returns a buffer of capacity at least n that begins with the
// elements of s, and releases s.
func (p *slicePool[T]) grow(s []T, n int) []T {
	g := p.get(n)[:len(s)]
	copy(g, s)
	p.put(s)
	return g
}
