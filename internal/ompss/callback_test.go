package ompss

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/knl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// TestCallbackWorkersMatchGoroutineWorkers: task bodies written as state
// machines — compute phases, nested task loops waited for with Group.Wait,
// tasks chained through events — record the same trace, interval for
// interval, on callback workers and on goroutine workers, with a callback
// or a goroutine main process, and the callback run starts no goroutine.
func TestCallbackWorkersMatchGoroutineWorkers(t *testing.T) {
	run := func(callback bool) ([]trace.Interval, vtime.Stats) {
		const workers, jobs = 3, 6
		params := knl.DefaultParams()
		node := knl.NewNode(params, workers)
		eng := vtime.NewEngine(node)
		tr := trace.New(workers, params.Freq)
		lanes := []int{0, 1, 2}
		newRT := New
		if callback {
			newRT = NewCallback
		}
		rt := newRT(eng, tr, lanes)
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
		if callback {
			eng.SpawnCallback("main", vtime.ResumeFunc(main))
		} else {
			eng.Spawn("main", main)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		for seq, pc := range pcs {
			if pc != 3 {
				t.Fatalf("job %d ended at step %d", seq, pc)
			}
		}
		return tr.Intervals, eng.Stats()
	}
	want, ws := run(false)
	got, gs := run(true)
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Errorf("callback workers recorded\n%v\ngoroutine workers\n%v", got, want)
	}
	if gs.Goroutines != 0 || gs.Handoffs != 0 {
		t.Errorf("callback run: %d goroutines, %d handoffs, want none", gs.Goroutines, gs.Handoffs)
	}
	if fmt.Sprint(gs.Steps, gs.JobsCompleted, gs.RateUpdates) != fmt.Sprint(ws.Steps, ws.JobsCompleted, ws.RateUpdates) {
		t.Errorf("callback run stats %+v, goroutine run %+v", gs, ws)
	}
}
