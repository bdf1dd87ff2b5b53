package serve

import (
	"fmt"
	"time"

	"repro/internal/trace"
)

// Admission control and the batching dispatcher.
//
// Every admitted request becomes a task on the bounded queue. A dispatcher
// goroutine pulls tasks and coalesces same-shape transforms into groups: a
// group flushes to the worker pool when it reaches MaxBatch rows or when
// its BatchWindow expires, whichever comes first — the serving-side
// analogue of the paper's per-iteration task grouping (many independent
// same-shape kernels become one scheduled unit). Servers with batching
// disabled dispatch every task immediately as a singleton group.
//
// Admission rejects with 503 + Retry-After instead of queueing unboundedly:
// when the queue is full, when the request's deadline cannot be met, and
// while the server drains. On drain, tasks already handed to the worker
// pool complete; everything still queued or pending in a batch window is
// rejected.

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
}

// rows counts the transforms of the whole group.
func (g *group) rows() int {
	n := 0
	for _, t := range g.tasks {
		n += t.rows
	}
	return n
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

func (t *task) fail(code int, retryAfter int, format string, args ...any) {
	t.resolve(taskOutcome{err: &statusError{code: code, retryAfter: retryAfter, msg: fmt.Sprintf(format, args...)}})
}

// admit places a task on the bounded queue, or explains the rejection.
func (s *Server) admit(t *task) *statusError {
	s.admitMu.RLock()
	defer s.admitMu.RUnlock()
	if s.draining {
		mRejects.With("draining").Inc()
		return &statusError{code: 503, retryAfter: s.retryAfter(), msg: "server is draining"}
	}
	if t.expired(time.Now()) {
		mRejects.With("deadline").Inc()
		return &statusError{code: 503, retryAfter: s.retryAfter(), msg: "deadline expired before admission"}
	}
	select {
	case s.queue <- t:
		mQueueDepth.Add(1)
		return nil
	default:
		mRejects.With("full").Inc()
		return &statusError{code: 503, retryAfter: s.retryAfter(),
			msg: fmt.Sprintf("queue full (%d requests waiting)", s.cfg.QueueDepth)}
	}
}

// retryAfter estimates how long a rejected client should back off, in whole
// seconds: one batch window per queued request spread over the workers,
// floored at 1 s — deliberately coarse, it is a hint, not a promise.
func (s *Server) retryAfter() int {
	est := time.Duration(s.cfg.QueueDepth/s.cfg.Workers+1) * s.cfg.BatchWindow
	if sec := int(est / time.Second); sec > 1 {
		return sec
	}
	return 1
}

// batching reports whether the server coalesces transform requests at all.
func (s *Server) batching() bool {
	return s.cfg.MaxBatch > 1 && s.cfg.BatchWindow > 0
}

// dispatch is the dispatcher goroutine: it owns the pending-group map and
// is the only sender on s.batches.
func (s *Server) dispatch() {
	defer close(s.dispatcherDone)
	pending := map[string]*group{}

	flush := func(key string) {
		g := pending[key]
		if g == nil {
			return
		}
		delete(pending, key)
		s.batches <- g
	}

	for {
		select {
		case t, ok := <-s.queue:
			if !ok {
				// Drain: everything not yet handed to the workers is
				// rejected; batches already queued for execution complete.
				for key, g := range pending {
					delete(pending, key)
					for _, t := range g.tasks {
						mQueueDepth.Add(-1)
						mRejects.With("draining").Inc()
						t.coalesceSpan.End()
						t.fail(503, s.retryAfter(), "server is draining")
					}
				}
				close(s.batches)
				return
			}
			t.queueSpan.End()
			if s.Draining() {
				// Admitted before the drain began but not yet handed to the
				// worker pool: rejected, like everything still queued.
				mQueueDepth.Add(-1)
				mRejects.With("draining").Inc()
				t.fail(503, s.retryAfter(), "server is draining")
				continue
			}
			if t.expired(time.Now()) {
				mQueueDepth.Add(-1)
				mRejects.With("deadline").Inc()
				t.fail(503, s.retryAfter(), "deadline expired while queued")
				continue
			}
			// The coalesce span covers batch-window residency plus the wait
			// for a free worker; runBatch ends it.
			t.coalesceSpan = t.root.Begin("coalesce")
			if !s.batching() {
				s.batches <- &group{key: t.key, tasks: []*task{t}}
				continue
			}
			g := pending[t.key]
			if g == nil {
				g = &group{key: t.key}
				pending[t.key] = g
				// Arm the window timer for this group. The timer goroutine
				// abandons the send once the dispatcher has exited.
				key := t.key
				time.AfterFunc(s.cfg.BatchWindow, func() {
					select {
					case s.flushCh <- key:
					case <-s.dispatcherDone:
					}
				})
			}
			g.tasks = append(g.tasks, t)
			if g.rows() >= s.cfg.MaxBatch {
				flush(t.key)
			}
		case key := <-s.flushCh:
			flush(key)
		}
	}
}
