package vtime

import "fmt"

// Synchronization primitives for simulated processes. Because exactly one
// process runs at a time, none of these need host-level locking; they only
// coordinate virtual-time blocking and waking. All waits are FIFO and
// therefore deterministic.

// WaitQueue is a FIFO list of blocked processes. It is the building block
// for the higher-level primitives.
type WaitQueue struct {
	_       NoCopy
	waiters []*Proc
	// Describe, when set, labels what waiters of this queue are blocked on;
	// it is rendered lazily into deadlock reports.
	Describe func() string
}

// Wait blocks the calling process until another process calls WakeOne or
// WakeAll.
func (q *WaitQueue) Wait(p *Proc) {
	q.waiters = append(q.waiters, p)
	if q.Describe != nil {
		p.BlockOn(q.Describe)
	} else {
		p.Block()
	}
}

// WakeOne wakes the longest-waiting process, if any. It reports whether a
// process was woken. The caller must be a running process.
func (q *WaitQueue) WakeOne(p *Proc) bool {
	if len(q.waiters) == 0 {
		return false
	}
	w := q.waiters[0]
	q.waiters = q.waiters[1:]
	p.Wake(w)
	return true
}

// WakeAll wakes every waiting process in FIFO order.
func (q *WaitQueue) WakeAll(p *Proc) {
	ws := q.waiters
	q.waiters = nil
	for _, w := range ws {
		p.Wake(w)
	}
}

// Len returns the number of blocked processes.
func (q *WaitQueue) Len() int { return len(q.waiters) }

// Semaphore is a counting semaphore for simulated processes.
type Semaphore struct {
	_     NoCopy
	count int
	wq    WaitQueue
}

// NewSemaphore returns a semaphore with the given initial count.
func NewSemaphore(n int) *Semaphore { return &Semaphore{count: n} }

// SetDescribe labels what acquirers of this semaphore block on, for
// deadlock reports.
func (s *Semaphore) SetDescribe(describe func() string) { s.wq.Describe = describe }

// Acquire takes one unit, blocking while the count is zero.
func (s *Semaphore) Acquire(p *Proc) {
	for s.count == 0 {
		s.wq.Wait(p)
	}
	s.count--
}

// Release returns one unit and wakes a waiter if any.
func (s *Semaphore) Release(p *Proc) {
	s.count++
	s.wq.WakeOne(p)
}

// Queue is an unbounded FIFO channel between simulated processes.
type Queue[T any] struct {
	_      NoCopy
	items  []T
	wq     WaitQueue
	closed bool
}

// NewQueue returns an empty queue.
func NewQueue[T any]() *Queue[T] { return &Queue[T]{} }

// Push appends an item and wakes one waiting consumer.
func (q *Queue[T]) Push(p *Proc, v T) {
	if q.closed {
		panic("vtime: push to closed queue")
	}
	q.items = append(q.items, v)
	q.wq.WakeOne(p)
}

// Pop removes the oldest item, blocking while the queue is empty. The second
// result is false if the queue was closed and drained.
func (q *Queue[T]) Pop(p *Proc) (T, bool) {
	for len(q.items) == 0 {
		if q.closed {
			var zero T
			return zero, false
		}
		q.wq.Wait(p)
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// TryPop removes the oldest item without blocking.
func (q *Queue[T]) TryPop() (T, bool) {
	if len(q.items) == 0 {
		var zero T
		return zero, false
	}
	v := q.items[0]
	q.items = q.items[1:]
	return v, true
}

// Close marks the queue closed and wakes all blocked consumers, which then
// observe the closed state once the queue drains.
func (q *Queue[T]) Close(p *Proc) {
	q.closed = true
	q.wq.WakeAll(p)
}

// Len returns the number of queued items.
func (q *Queue[T]) Len() int { return len(q.items) }

// Barrier blocks n processes until all have arrived, then releases them.
type Barrier struct {
	_       NoCopy
	n       int
	arrived int
	wq      WaitQueue
}

// NewBarrier returns a barrier for n processes.
func NewBarrier(n int) *Barrier {
	b := &Barrier{n: n}
	b.wq.Describe = func() string {
		return fmt.Sprintf("vtime: barrier (%d of %d arrived)", b.arrived, b.n)
	}
	return b
}

// Await blocks until n processes have called Await, then all proceed. The
// barrier resets for reuse. It returns true for the last arriver.
func (b *Barrier) Await(p *Proc) bool {
	b.arrived++
	if b.arrived == b.n {
		b.arrived = 0
		b.wq.WakeAll(p)
		return true
	}
	b.wq.Wait(p)
	return false
}
