package serve

import (
	"testing"
)

// Both exec paths are checked with 16 rows of one 16³ transform.
var batchDims = []int{16, 16, 16}

const batchRows = 16

// execRows runs rows copies of payload through runBatch under the batching
// key key, the way the dispatcher drives the worker: batched hands it one
// group of rows same-shape tasks (one plan lookup, one host-parallel
// fan-out), unbatched hands it rows singleton groups — what the same offered
// load costs with coalescing disabled. It returns each row's result.
func execRows(s *Server, key string, payload []complex128, rows int, batched bool) ([][]complex128, error) {
	tasks := make([]*task, rows)
	for j := range tasks {
		req := &Request{Op: OpTransform, Dims: batchDims, Sign: -1, Batch: 1}
		tasks[j] = newTask(req, key, append([]complex128(nil), payload...))
		s.waiting.Add(1) // as admission would; runBatch takes it off
		mQueueDepth.Add(1)
	}
	if batched {
		s.runBatch(&group{key: key, tasks: tasks})
	} else {
		for _, t := range tasks {
			s.runBatch(&group{key: key, tasks: []*task{t}})
		}
	}
	out := make([][]complex128, rows)
	for j, t := range tasks {
		if o := <-t.done; o.err != nil {
			return nil, o.err
		}
		out[j] = t.data
	}
	return out, nil
}

// A coalesced batch is one kernel execution and one plan lookup; the same
// rows dispatched one by one are as many executions. Counted, not timed:
// the batched path increments fftxd_batches_total once and records one
// fftxd_batch_rows observation of all 16 rows, the unbatched path
// increments it 16 times, the two paths build the plan at most once between
// them, and every row's result is bit-identical between them. Each path
// runs under its own key, so the per-key series count this test's batches
// alone.
func TestBatchedExecCounts(t *testing.T) {
	s := New(Config{Workers: 1})
	payload := toComplex(randomData(1, 16*16*16))

	const batchedKey, unbatchedKey = "exec-counts-batched", "exec-counts-unbatched"
	batches0, unbatches0 := mBatches.With(batchedKey).Value(), mBatches.With(unbatchedKey).Value()
	h := mBatchRows.With(batchedKey)
	groups0, rows0 := h.Count(), h.Sum()
	batched, err := execRows(s, batchedKey, payload, batchRows, true)
	if err != nil {
		t.Fatal(err)
	}
	unbatched, err := execRows(s, unbatchedKey, payload, batchRows, false)
	if err != nil {
		t.Fatal(err)
	}

	if got := mBatches.With(batchedKey).Value() - batches0; got != 1 {
		t.Errorf("batched path: fftxd_batches_total += %v, want 1", got)
	}
	if groups, rows := h.Count()-groups0, h.Sum()-rows0; groups != 1 || rows != batchRows {
		t.Errorf("batched path: fftxd_batch_rows got %d observations summing to %v, want 1 of %d",
			groups, rows, batchRows)
	}
	if got := mBatches.With(unbatchedKey).Value() - unbatches0; got != batchRows {
		t.Errorf("unbatched path: fftxd_batches_total += %v, want %d", got, batchRows)
	}
	if b := s.cache.Builds(); b > 1 {
		t.Errorf("%d plan builds, want at most 1", b)
	}
	for j := range batched {
		for i := range batched[j] {
			if batched[j][i] != unbatched[j][i] {
				t.Fatalf("row %d element %d: batched %v, unbatched %v", j, i, batched[j][i], unbatched[j][i])
			}
		}
	}
}

// BenchmarkExecBatched and BenchmarkExecUnbatched time the two exec paths
// of TestBatchedExecCounts; their ns/op ratio is the batching gain on this
// host, which depends on its core count and load:
//
//	go test ./internal/serve -run '^$' -bench 'Exec(Un)?[Bb]atched'
func BenchmarkExecBatched(b *testing.B)   { benchmarkExec(b, true) }
func BenchmarkExecUnbatched(b *testing.B) { benchmarkExec(b, false) }

func benchmarkExec(b *testing.B, batched bool) {
	s := New(Config{Workers: 1})
	payload := toComplex(randomData(1, 16*16*16))
	key := (&Request{Op: OpTransform, Dims: batchDims, Sign: -1, Batch: 1}).ShapeKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := execRows(s, key, payload, batchRows, batched); err != nil {
			b.Fatal(err)
		}
	}
}
