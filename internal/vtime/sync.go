package vtime

// Synchronization primitives for simulated processes. Because exactly one
// process runs at a time, none of these need host-level locking; they only
// coordinate virtual-time blocking and waking. All waits are FIFO and
// therefore deterministic.

// WaitQueue is a FIFO list of blocked processes. It is the building block
// for the higher-level primitives. Waiters are taken from a head index and
// the backing array is kept, so a queue that processes wait on again and
// again stops allocating once it has held its most waiters.
type WaitQueue struct {
	_       NoCopy
	waiters []*Proc
	head    int // waiters[:head] have been woken
	// Describe, when set, labels what waiters of this queue are blocked on;
	// it is rendered lazily into deadlock reports.
	Describe func() string
}

// Wait blocks the calling process until another process calls WakeOne or
// WakeAll.
func (q *WaitQueue) Wait(p *Proc) {
	if q.head > 0 && len(q.waiters) == cap(q.waiters) {
		// Full, with woken slots at the front: shift down, not grow.
		n := copy(q.waiters, q.waiters[q.head:])
		clear(q.waiters[n:])
		q.waiters, q.head = q.waiters[:n], 0
	}
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
	if q.Len() == 0 {
		return false
	}
	w := q.waiters[q.head]
	q.waiters[q.head] = nil
	q.head++
	if q.head == len(q.waiters) {
		q.waiters, q.head = q.waiters[:0], 0
	}
	p.Wake(w)
	return true
}

// WakeAll wakes every waiting process in FIFO order.
func (q *WaitQueue) WakeAll(p *Proc) {
	for _, w := range q.waiters[q.head:] {
		p.Wake(w)
	}
	clear(q.waiters)
	q.waiters, q.head = q.waiters[:0], 0
}

// Len returns the number of blocked processes.
func (q *WaitQueue) Len() int { return len(q.waiters) - q.head }

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

// Acquire takes one unit, blocking while the count is zero. It reports
// whether it took the unit: a callback process that has to wait gets false
// and calls Acquire again when it next runs; a goroutine process always
// gets true.
func (s *Semaphore) Acquire(p *Proc) bool {
	for s.count == 0 {
		s.wq.Wait(p)
		if p.Suspended() {
			return false
		}
	}
	s.count--
	return true
}

// Release returns one unit and wakes a waiter if any.
func (s *Semaphore) Release(p *Proc) {
	s.count++
	s.wq.WakeOne(p)
}
