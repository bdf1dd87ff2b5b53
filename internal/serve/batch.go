package serve

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Admission control and the batching dispatcher.
//
// Every admitted request becomes a task on the queue. A dispatcher goroutine
// pulls tasks and coalesces same-shape transforms into groups, and hands the
// oldest group to a worker the moment one is free: no timer holds a group
// back. While every worker is busy, arrivals coalesce, so a group's size
// follows the queue's depth, up to MaxBatch rows — the serving-side analogue
// of the paper's per-iteration task grouping (many independent same-shape
// kernels become one scheduled unit, and a unit starts as soon as a core is
// free for it). MaxBatch 1 makes every task a group of its own.
//
// Admission rejects with 503 + Retry-After instead of queueing unboundedly:
// when QueueDepth admitted tasks are still waiting for a worker (on the queue
// or in a pending group alike), when the request's deadline cannot be met,
// and while the server drains. On drain, groups a worker has taken complete;
// everything still queued or pending is rejected.

// task is one admitted request travelling through the queue.
type task struct {
	req *Request
	key string // batching key, the request's ShapeKey
	// data is the transform payload, in a complexPool buffer: decoded into,
	// transformed in place by a worker, rendered from by the handler. The
	// handler releases it, and only after receiving the task's outcome (see
	// pool.go); until then a worker may be writing to it.
	data []complex128
	rows int // transforms carried (req.Batch)

	enq      time.Time
	deadline time.Time // zero = none

	// Tracing handles of a sampled request (all no-ops when untraced). The
	// HTTP handler owns the root span; queueSpan is handed off to the
	// dispatcher and coalesceSpan from the dispatcher to the worker as the
	// task crosses goroutines — each stage Ends the span of the wait it
	// terminates.
	spans        *trace.SpanSet
	root         trace.SpanRef
	queueSpan    trace.SpanRef
	coalesceSpan trace.SpanRef

	// done receives exactly one outcome; it is buffered so resolution
	// never blocks on a departed client.
	done chan taskOutcome

	// own is the group this task opens when no group of its key is taking
	// tasks; its task list starts on solo, so a group of one allocates
	// nothing.
	own  group
	solo [1]*task
}

// taskOutcome resolves one task. Its result is already where the handler
// will render it from, task.data, so its outcome is only the size of the
// batch it rode in, or a status error.
type taskOutcome struct {
	batchSize int
	err       *statusError
}

// statusError is an error with an HTTP status; RetryAfter > 0 adds a
// Retry-After header (the backpressure signal).
type statusError struct {
	code       int
	retryAfter int // seconds
	msg        string
}

func (e *statusError) Error() string { return e.msg }

// group is a batch of same-key tasks executed as one unit.
type group struct {
	key   string
	tasks []*task
	rows  int // transforms of the whole group
}

// openGroup makes t the first task of its own group.
func (t *task) openGroup() *group {
	t.solo[0] = t
	t.own = group{key: t.key, tasks: t.solo[:], rows: t.rows}
	return &t.own
}

// newTask builds the task of a validated request: its batching key and its
// payload, whose buffer the task takes over.
func newTask(req *Request, key string, data []complex128) *task {
	t := &task{
		req:  req,
		key:  key,
		data: data,
		enq:  time.Now(),
		rows: req.Batch,
		done: make(chan taskOutcome, 1),
	}
	mShapeReqs.With(key).Inc()
	if req.DeadlineMillis > 0 {
		t.deadline = t.enq.Add(time.Duration(req.DeadlineMillis) * time.Millisecond)
	}
	return t
}

// release returns the task's payload buffer to its pool. Only a goroutine
// that holds the payload alone may call it: the handler once it has received
// the task's outcome, or when admission refused the task. A task whose client
// went away first is never released — a worker may still be transforming its
// payload — and is left to the garbage collector.
func (t *task) release() {
	complexPool.put(t.data)
	t.data = nil
}

// expired reports whether the task's deadline has passed at now.
func (t *task) expired(now time.Time) bool {
	return !t.deadline.IsZero() && now.After(t.deadline)
}

// resolve delivers the outcome (exactly once per task).
func (t *task) resolve(out taskOutcome) { t.done <- out }

// fail resolves the task with a 503.
func (t *task) fail(msg string) { t.resolve(taskOutcome{err: unavailable(msg)}) }

// retryAfterSeconds is the backoff every 503 advises: a hint, not a
// promise.
const retryAfterSeconds = 1

// unavailable is the 503 + Retry-After of every refusal.
func unavailable(msg string) *statusError {
	return &statusError{code: 503, retryAfter: retryAfterSeconds, msg: msg}
}

// admit places a task on the queue, or explains the rejection. At most
// QueueDepth admitted tasks wait for a worker at once, whether on the queue
// or in a pending group, so the send never blocks.
func (s *Server) admit(t *task) *statusError {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		mRejects.With("draining").Inc()
		return unavailable("server is draining")
	}
	if t.expired(time.Now()) {
		mRejects.With("deadline").Inc()
		return unavailable("deadline expired before admission")
	}
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		mRejects.With("full").Inc()
		return unavailable(fmt.Sprintf("queue full (%d requests waiting)", s.cfg.QueueDepth))
	}
	mQueueDepth.Add(1)
	s.queue <- t
	return nil
}

// taken removes n tasks from the admitted ones waiting for a worker: a
// worker took them, or the dispatcher rejected them.
func (s *Server) taken(n int) {
	s.waiting.Add(-int64(n))
	mQueueDepth.Add(-float64(n))
}

// reject fails a task that no worker has taken.
func (s *Server) reject(t *task, reason, msg string) {
	s.taken(1)
	mRejects.With(reason).Inc()
	t.fail(msg)
}

// dispatch is the dispatcher goroutine and the only sender on s.batches. It
// keeps the pending groups in arrival order and, by key, the one group of
// each key still taking tasks. While tasks are queued it only receives, so
// every task already queued joins its group before the oldest group is
// offered; s.batches is unbuffered, so the offer succeeds only when a worker
// is idle.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	var pending []*group
	open := map[string]*group{}
	for {
		var out chan<- *group // nil, so never ready, while nothing is offered
		var head *group
		if len(pending) > 0 && len(s.queue) == 0 {
			out, head = s.batches, pending[0]
		}
		select {
		case t, ok := <-s.queue:
			if !ok {
				s.drainPending(pending)
				return
			}
			pending = s.place(t, pending, open)
		case out <- head:
			if open[head.key] == head {
				delete(open, head.key)
			}
			n := copy(pending, pending[1:])
			pending[n] = nil
			pending = pending[:n]
		}
	}
}

// place puts a task the dispatcher received into the open group of its key,
// or opens a group for it; a group seals once it holds MaxBatch rows. It
// returns the pending list with any new group appended.
func (s *Server) place(t *task, pending []*group, open map[string]*group) []*group {
	t.queueSpan.End()
	if s.Draining() {
		// Admitted before the drain began but not yet handed to a worker:
		// rejected, like everything still queued.
		s.reject(t, "draining", "server is draining")
		return pending
	}
	if t.expired(time.Now()) {
		s.reject(t, "deadline", "deadline expired while queued")
		return pending
	}
	// The coalesce span covers the wait for company and for a free worker;
	// runBatch ends it.
	t.coalesceSpan = t.root.Begin("coalesce")
	g := open[t.key]
	if g == nil {
		g = t.openGroup()
		pending = append(pending, g)
		open[t.key] = g
	} else {
		g.tasks = append(g.tasks, t)
		g.rows += t.rows
	}
	if g.rows >= s.cfg.MaxBatch {
		delete(open, t.key)
	}
	return pending
}

// drainPending rejects every pending group once the queue has closed, and
// ends the workers' loop: groups they have taken complete.
func (s *Server) drainPending(pending []*group) {
	for _, g := range pending {
		for _, t := range g.tasks {
			t.coalesceSpan.End()
			s.reject(t, "draining", "server is draining")
		}
	}
	close(s.batches)
}
