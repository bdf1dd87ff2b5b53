// Work-stealing runtime. The default ParallelFor path claims fixed chunks
// off a shared atomic counter: deterministic, but every claim contends on
// one cache line and an executor that finishes early spins on the counter
// instead of helping a loaded neighbor. Pool keeps the exact same chunk
// boundaries (they depend only on n, grain and the pool width, so the
// bit-identical contract is untouched) and changes only who runs each
// chunk: chunks are dealt round-robin onto per-worker deques, owners pop
// LIFO for cache locality, and a worker that drains its deque steals FIFO
// from random victims — the classic owner-LIFO/thief-FIFO discipline.
//
// The fixed-chunk mode stays the package default; SetStealing(true) routes
// ParallelFor through a shared Pool. Bodies obey the same contract either
// way: writes confined to [lo,hi), no mpi/vtime/ompss calls (the import
// layering that keeps the runtimes out covers Pool.ParallelFor too).
package par

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// stealing is the process-wide switch routing ParallelFor through the
// shared work-stealing pool.
var stealing atomic.Bool

// SetStealing selects the work-stealing executor for ParallelFor
// process-wide and (re)builds the shared pool for the configured worker
// count. Chunk boundaries — and therefore results — are identical to the
// default fixed-chunk mode; only the chunk-to-thread assignment becomes
// scheduling-dependent. Must not race in-flight ParallelFor calls.
func SetStealing(on bool) {
	stealing.Store(on)
	rebuildSharedPool()
}

// Stealing reports whether ParallelFor uses the work-stealing pool.
func Stealing() bool { return stealing.Load() }

// sharedPool is the pool behind SetStealing. It is built and rebuilt only on
// the cold configuration paths (SetStealing, SetWorkers), never from inside
// ParallelFor: the hot path just loads the pointer, keeping it free of
// allocation — and of pool construction — in steady state.
var (
	sharedMu   sync.Mutex
	sharedPool atomic.Pointer[Pool]
)

// rebuildSharedPool reconciles the shared pool with the current switches:
// built at the configured width while stealing is on, closed and dropped
// while it is off (so no worker goroutines linger).
func rebuildSharedPool() {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	old := sharedPool.Load()
	if !Stealing() {
		if old != nil {
			sharedPool.Store(nil)
			old.Close()
		}
		return
	}
	w := Workers()
	if old != nil && old.width == w {
		return
	}
	sharedPool.Store(NewPool(w))
	if old != nil {
		old.Close()
	}
}

// stealCall is the shared state of one Pool.ParallelFor invocation. The
// pool owns a single record (invocations are not concurrent) and reuses it,
// so the transform hot path through Pool.ParallelFor stays allocation-free
// in steady state — the same contract TestParallelForAllocs pins on the
// fixed-chunk mode's pooled job. The done channel is allocated once in NewPool; the last
// finisher sends one token instead of closing it.
type stealCall struct {
	n, chunk  int
	fn        func(lo, hi int)
	remaining atomic.Int32
	done      chan struct{}
	panicked  atomic.Pointer[panicValue]
}

// panicValue boxes the first recovered panic of a Pool.ParallelFor call.
type panicValue struct{ v any }

// stealTask is one deque entry: a chunk index bound to its call, so a
// worker draining the tail of one invocation can safely pick up entries
// the next invocation has already pushed.
type stealTask struct {
	cs *stealCall
	c  int
}

// dequeCap bounds one deque's entries within a single invocation: the chunk
// formula yields at most 4·width chunks, dealt round-robin over width
// deques, so no deque ever holds more than ceil(4·width/width) = 4 entries
// (the deques drain completely between invocations). The 2× headroom keeps
// the fixed buffer safe against small formula adjustments.
const dequeCap = 8

// deque is one worker's chunk queue over a fixed buffer preallocated in
// NewPool ([head,tail) is the live window; both reset to 0 when it drains).
// A mutex keeps it simple and race-free; chunk bodies dwarf the push/pop
// critical sections, so a lock-free Chase-Lev deque would buy nothing here.
type deque struct {
	mu         sync.Mutex
	ts         []stealTask
	head, tail int
}

func (d *deque) push(t stealTask) {
	d.mu.Lock()
	d.ts[d.tail] = t
	d.tail++
	d.mu.Unlock()
}

// popTail removes the newest entry (owner side, LIFO).
func (d *deque) popTail() (stealTask, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == d.tail {
		return stealTask{}, false
	}
	d.tail--
	t := d.ts[d.tail]
	if d.head == d.tail {
		d.head, d.tail = 0, 0
	}
	return t, true
}

// popHead removes the oldest entry (thief side, FIFO).
func (d *deque) popHead() (stealTask, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.head == d.tail {
		return stealTask{}, false
	}
	t := d.ts[d.head]
	d.head++
	if d.head == d.tail {
		d.head, d.tail = 0, 0
	}
	return t, true
}

// Pool is a work-stealing executor with persistent worker goroutines. One
// invocation runs at a time per pool (ParallelFor is not reentrant); Close
// joins every worker — no goroutine outlives it.
type Pool struct {
	width  int
	deques []deque
	calls  []chan *stealCall
	wg     sync.WaitGroup
	call   stealCall  // reused invocation record (one invocation at a time)
	box    panicValue // reused panic box (first panic wins the CAS)
}

// NewPool starts a pool of w workers (w < 1 means GOMAXPROCS).
func NewPool(w int) *Pool {
	if w < 1 {
		w = runtime.GOMAXPROCS(0)
	}
	p := &Pool{
		width:  w,
		deques: make([]deque, w),
		calls:  make([]chan *stealCall, w),
	}
	p.call.done = make(chan struct{}, 1)
	for i := range p.deques {
		p.deques[i].ts = make([]stealTask, dequeCap)
	}
	p.wg.Add(w)
	for i := 0; i < w; i++ {
		i := i
		p.calls[i] = make(chan *stealCall, 1)
		go func() {
			defer p.wg.Done()
			// The channel is a wake signal; deque entries carry their own
			// call state, so a worker lingering in a previous invocation's
			// claim loop can already execute entries of the next one.
			for range p.calls[i] {
				p.work(i)
			}
		}()
	}
	return p
}

// Width returns the pool's worker count.
func (p *Pool) Width() int { return p.width }

// Close shuts the workers down and blocks until every worker goroutine has
// exited. The pool must be idle; ParallelFor must not be called afterwards.
func (p *Pool) Close() {
	for i := range p.calls {
		close(p.calls[i])
	}
	p.wg.Wait()
}

// ParallelFor runs fn over [0,n) with the same chunk boundaries and body
// contract as the package-level ParallelFor, executed by the pool's workers
// under work stealing. A panic in any chunk is re-raised on the caller
// after all chunks finish. Not safe for concurrent invocations of the same
// pool.
func (p *Pool) ParallelFor(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain < 1 {
		grain = 1
	}
	if p.width <= 1 || n <= grain {
		fn(0, n)
		return
	}
	chunk := (n + 4*p.width - 1) / (4 * p.width)
	if chunk < grain {
		chunk = grain
	}
	nc := (n + chunk - 1) / chunk
	if nc <= 1 {
		fn(0, n)
		return
	}
	cs := &p.call
	cs.n, cs.chunk, cs.fn = n, chunk, fn
	cs.panicked.Store(nil)
	cs.remaining.Store(int32(nc))
	for c := 0; c < nc; c++ {
		p.deques[c%p.width].push(stealTask{cs: cs, c: c})
	}
	for i := range p.calls {
		p.calls[i] <- cs
	}
	<-cs.done
	cs.fn = nil // drop the body reference so the pool doesn't pin caller state
	if pv := cs.panicked.Load(); pv != nil {
		panic(fmt.Sprintf("par: panic in ParallelFor body: %v", pv.v))
	}
}

// work is one worker's claim loop for the current invocation: drain the own
// deque newest-first, then steal oldest-first from random victims, and
// return once a full sweep finds no unclaimed chunk (no chunk is added
// mid-invocation, so an empty sweep is conclusive).
func (p *Pool) work(id int) {
	seed := uint64(id)*0x9E3779B97F4A7C15 + 1
	for {
		t, ok := p.deques[id].popTail()
		if !ok {
			t, ok = p.steal(id, &seed)
		}
		if !ok {
			return
		}
		p.exec(t)
	}
}

// steal tries a bounded number of random victims (xorshift64, seeded per
// worker), then falls back to one deterministic sweep over every deque.
func (p *Pool) steal(id int, seed *uint64) (stealTask, bool) {
	for tries := 0; tries < 2*p.width; tries++ {
		*seed ^= *seed << 13
		*seed ^= *seed >> 7
		*seed ^= *seed << 17
		v := int(*seed % uint64(p.width-1))
		if v >= id {
			v++
		}
		if t, ok := p.deques[v].popHead(); ok {
			return t, true
		}
	}
	for v := 0; v < p.width; v++ {
		if t, ok := p.deques[v].popHead(); ok {
			return t, true
		}
	}
	return stealTask{}, false
}

// exec runs one claimed chunk, boxing the first panic on its call (into the
// pool's preallocated box: the CAS winner writes the value, and the write
// happens-before the caller's read via the remaining-counter chain), and
// sends the call's done token when the last chunk finishes.
func (p *Pool) exec(t stealTask) {
	cs := t.cs
	func() {
		defer func() {
			if r := recover(); r != nil {
				if cs.panicked.CompareAndSwap(nil, &p.box) {
					p.box.v = r
				}
			}
		}()
		lo := t.c * cs.chunk
		hi := lo + cs.chunk
		if hi > cs.n {
			hi = cs.n
		}
		cs.fn(lo, hi)
	}()
	if cs.remaining.Add(-1) == 0 {
		cs.done <- struct{}{}
	}
}
