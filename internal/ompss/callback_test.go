package ompss

import (
	"fmt"
	"hash/fnv"
	"testing"

	"repro/internal/knl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// TestCallbackWorkersMatchGoroutineWorkers: task bodies written as state
// machines — compute phases, nested task loops waited for with Group.Wait,
// tasks chained through events — record the trace that the same bodies
// recorded on goroutine workers, a kind since removed, interval for
// interval: the digest and counters below are that run's.
func TestCallbackWorkersMatchGoroutineWorkers(t *testing.T) {
	const workers, jobs = 3, 6
	params := knl.DefaultParams()
	node := knl.NewNode(params, workers)
	eng := vtime.NewEngine(node)
	tr := trace.New(workers, params.Freq)
	rt := New(eng, tr, []int{0, 1, 2})
	pcs := make([]int, jobs)
	groups := make([]*Group, jobs)
	// body is the state machine of job n.Seq's task: a compute phase, a
	// nested loop of compute chunks, and a second compute phase.
	body := func(w *Worker) {
		seq := w.Running().Seq
		for {
			switch pcs[seq] {
			case 0:
				if !w.Compute("head", knl.ClassVector, float64(1+seq)*2e5) {
					return
				}
			case 1:
				if groups[seq] == nil {
					groups[seq] = rt.NewGroup()
					rt.TaskLoopInGroup(w.Proc, groups[seq], Name{Text: "chunk.it", Seq: seq}, 5, 2, func(w2 *Worker, lo, hi int) {
						w2.Compute("chunk", knl.ClassMem, float64(hi-lo)*1e5)
					})
				}
				if !groups[seq].Wait(w) {
					return
				}
			case 2:
				if !w.Compute("tail", knl.ClassVector, 3e5) {
					return
				}
			default:
				return
			}
			pcs[seq]++
		}
	}
	submitted := false
	main := func(p *vtime.Proc) {
		if !submitted {
			submitted = true
			var prev *Task
			for seq := 0; seq < jobs; seq++ {
				ev := rt.Event(p, "gate", nil)
				t := rt.SubmitNamed(p, Name{Text: "job.", Seq: seq}, []*Task{prev}, seq%2, body)
				rt.Complete(p, ev)
				if seq%3 == 2 {
					prev = t
				}
			}
		}
		if !rt.Taskwait(p) {
			return
		}
		rt.Shutdown(p)
	}
	eng.Spawn("main", vtime.ResumeFunc(main))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	for seq, pc := range pcs {
		if pc != 3 {
			t.Fatalf("job %d ended at step %d", seq, pc)
		}
	}
	h := fnv.New64a()
	h.Write([]byte(fmt.Sprint(tr.Intervals)))
	if n, d := len(tr.Intervals), h.Sum64(); n != 38 || d != 0x15c22ee9de3a576f {
		t.Errorf("recorded %d intervals with digest %016x, want 38 with 15c22ee9de3a576f:\n%v", n, d, tr.Intervals)
	}
	if st := eng.Stats(); st.Steps != 49 || st.JobsCompleted != 30 || st.RateUpdates != 30 {
		t.Errorf("stats %+v, want 49 steps, 30 jobs and 30 rate updates", st)
	}
}
