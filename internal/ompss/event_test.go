package ompss

import (
	"strings"
	"testing"

	"repro/internal/knl"
	"repro/internal/vtime"
)

// runDataflow drives a main process over a barrier-free schedule: body
// submits work and returns the node main should park on; no Taskwait —
// the schedule must drain itself through successor counting.
func runDataflow(t *testing.T, nWorkers int, body func(p *vtime.Proc, rt *Runtime) *Task) {
	t.Helper()
	node := knl.NewNode(knl.DefaultParams(), nWorkers)
	eng := vtime.NewEngine(node)
	lanes := make([]int, nWorkers)
	for i := range lanes {
		lanes[i] = i
	}
	rt := New(eng, nil, lanes)
	rt.Overhead = 0
	var sink *Task
	eng.Spawn("main", vtime.ResumeFunc(func(p *vtime.Proc) {
		if sink == nil {
			sink = body(p, rt)
		}
		if rt.Wait(p, sink) {
			rt.Shutdown(p)
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.TaskwaitSec != 0 {
		t.Errorf("dataflow schedule accumulated TaskwaitSec %v, want 0", rt.TaskwaitSec)
	}
}

// A join completes when its last predecessor does, exactly once, and
// releases what waits on it only then.
func TestJoinCountsCompletions(t *testing.T) {
	const n = 5
	finished, fired := 0, 0
	runDataflow(t, 2, func(p *vtime.Proc, rt *Runtime) *Task {
		parts := make([]*Task, n)
		for i := range parts {
			parts[i] = rt.Submit(p, "part", nil, 0, task(sleep(1), func(w *Worker) { finished++ }))
		}
		join := rt.Event(p, "join", parts)
		return rt.Submit(p, "after-join", []*Task{join}, 0, func(w *Worker) {
			if finished != n {
				t.Errorf("join released its successor after %d of %d parts", finished, n)
			}
			fired++
		})
	})
	if fired != 1 {
		t.Fatalf("join successor ran %d times, want 1", fired)
	}
}

// A task is released only once every predecessor has completed, and at
// once when all of them already have (or the list holds only nil).
func TestSubmitAfterSuccessorCounting(t *testing.T) {
	var order []string
	runDataflow(t, 1, func(p *vtime.Proc, rt *Runtime) *Task {
		a := rt.Event(p, "a", nil)
		b := rt.Event(p, "b", nil)
		consumer := rt.Submit(p, "consumer", []*Task{a, b}, 0, func(w *Worker) {
			if !a.done || !b.done {
				t.Error("consumer ran before its inputs completed")
			}
			order = append(order, "consumer")
		})
		rt.Submit(p, "free", nil, 10, func(w *Worker) {
			order = append(order, "free")
			rt.Complete(w.Proc, a)
		})
		completed := rt.Event(p, "noop", nil)
		rt.Complete(p, completed)
		rt.Submit(p, "also-free", []*Task{completed, nil}, 5, func(w *Worker) {
			order = append(order, "also-free")
			rt.Complete(w.Proc, b)
		})
		return consumer
	})
	want := []string{"free", "also-free", "consumer"}
	if strings.Join(order, ",") != strings.Join(want, ",") {
		t.Fatalf("order %v, want %v", order, want)
	}
}

// A diamond a -> {b, c} -> d: the last arrival releases the sink.
func TestSubmitAfterDiamond(t *testing.T) {
	var order []string
	runDataflow(t, 2, func(p *vtime.Proc, rt *Runtime) *Task {
		step := func(name string, dur float64, after ...*Task) *Task {
			return rt.Submit(p, name, after, 0, task(sleep(dur), func(w *Worker) { order = append(order, name) }))
		}
		a := step("a", 1)
		b := step("b", 1, a)
		c := step("c", 2, a)
		return step("d", 1, b, c)
	})
	if len(order) != 4 || order[0] != "a" || order[3] != "d" {
		t.Fatalf("order %v, want a first and d last", order)
	}
}

// A join completes while its last predecessor is still being completed,
// but the process parked on it runs only after that task has left the
// pending count — so Wait returning implies a drained runtime, and
// Shutdown needs no Taskwait first.
func TestJoinWaiterSeesDrainedRuntime(t *testing.T) {
	runDataflow(t, 1, func(p *vtime.Proc, rt *Runtime) *Task {
		only := rt.Submit(p, "only", nil, 0, task(sleep(1)))
		join := rt.Event(p, "join", []*Task{only})
		p.Engine().Spawn("observer", vtime.ResumeFunc(func(op *vtime.Proc) {
			if rt.Wait(op, join) && rt.pending != 0 {
				t.Errorf("join waiter sees pending=%d, want 0", rt.pending)
			}
		}))
		return join
	})
}

// A join is the future of its predecessors and completes only through
// them: Complete on it, before or after they finish, panics — either means
// the graph was mis-built.
func TestFutureDoubleCompletePanics(t *testing.T) {
	node := knl.NewNode(knl.DefaultParams(), 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	panics := 0
	complete := func(p *vtime.Proc, ev *Task) {
		defer func() {
			if recover() != nil {
				panics++
			}
		}()
		rt.Complete(p, ev)
	}
	var join *Task
	eng.Spawn("main", vtime.ResumeFunc(func(p *vtime.Proc) {
		if join == nil {
			join = rt.Event(p, "join", []*Task{rt.Submit(p, "task", nil, 0, func(w *Worker) {})})
			complete(p, join)
		}
		if rt.Wait(p, join) {
			complete(p, join)
			rt.Shutdown(p)
		}
	}))
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if panics != 2 {
		t.Fatalf("%d of 2 Complete calls on a join panicked", panics)
	}
}

// Taskwait charges its stall to the runtime's TaskwaitSec account; the
// join path (exercised by every other test here) leaves it at zero.
func TestTaskwaitSecAccounting(t *testing.T) {
	node := knl.NewNode(knl.DefaultParams(), 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	spawnMain(eng, rt, nil, func(p *vtime.Proc) { rt.Submit(p, "slow", nil, 0, task(sleep(3))) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if rt.TaskwaitSec != 3 {
		t.Fatalf("TaskwaitSec = %v, want 3", rt.TaskwaitSec)
	}
}
