package serve

import (
	"runtime"
	"testing"
)

// execBenchmark measures the exec layer the way the dispatcher drives it:
// "batched" hands the worker one group of rows same-shape tasks (one plan
// lookup, one host-parallel fan-out), "unbatched" hands it rows singleton
// groups — what the same offered load costs with coalescing disabled.
func execBenchmark(s *Server, dims []int, rows int, batched bool) func(b *testing.B) {
	n := 1
	for _, d := range dims {
		n *= d
	}
	data := randomData(1, n)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tasks := make([]*task, rows)
			for j := range tasks {
				req := &Request{Op: OpTransform, Dims: dims, Sign: -1, Batch: 1}
				tasks[j] = newTask(req, req.ShapeKey(), toComplex(data))
				mQueueDepth.Add(1) // runBatch decrements per task
			}
			if batched {
				s.runBatch(&group{key: tasks[0].key, tasks: tasks})
			} else {
				for _, t := range tasks {
					s.runBatch(&group{key: t.key, tasks: []*task{t}})
				}
			}
			for _, t := range tasks {
				<-t.done
			}
		}
	}
}

// TestBatchedThroughputGain is the benchmark-backed acceptance check: a
// coalesced same-shape batch must deliver at least 1.3× the throughput of
// the same requests dispatched one by one. On multi-core hosts the win is
// the shared host-parallel fan-out; the single-core floor is the amortized
// per-batch dispatch overhead, measured on a small shape where it shows.
func TestBatchedThroughputGain(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark comparison skipped in -short mode")
	}
	s := New(Config{Workers: 1})
	dims := []int{16, 16, 16}
	rows := 16
	if runtime.GOMAXPROCS(0) < 2 {
		// One core: no parallel speedup exists, so measure the dispatch
		// amortization where kernel time does not drown it.
		dims = []int{16}
		rows = 128
	}

	un := testing.Benchmark(execBenchmark(s, dims, rows, false))
	ba := testing.Benchmark(execBenchmark(s, dims, rows, true))
	if un.N == 0 || ba.N == 0 {
		t.Fatal("benchmarks did not run")
	}
	ratio := float64(un.NsPerOp()) / float64(ba.NsPerOp())
	t.Logf("dims %v rows %d: unbatched %v/op, batched %v/op, gain %.2fx",
		dims, rows, un.NsPerOp(), ba.NsPerOp(), ratio)
	if ratio < 1.3 {
		t.Errorf("batched throughput gain %.2fx, want >= 1.3x", ratio)
	}
}
