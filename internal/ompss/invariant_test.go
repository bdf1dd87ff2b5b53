package ompss

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/vtime"
)

// cyclicRuntime builds a runtime whose live-task graph contains a -> b -> a.
// The public API cannot produce this (edges always point old -> new),
// so the tests corrupt the internal state directly.
func cyclicRuntime(rt *Runtime) {
	a := &Task{label: "a", npred: 1}
	b := &Task{label: "b", npred: 1}
	a.succs = []*Task{b}
	b.succs = []*Task{a}
	rt.tasks = append(rt.tasks, a, b)
}

func TestCheckCyclesDetectsCycle(t *testing.T) {
	rt := &Runtime{}
	cyclicRuntime(rt)
	err := rt.CheckCycles()
	if err == nil {
		t.Fatal("CheckCycles() = nil on a cyclic graph")
	}
	for _, want := range []string{"dependency cycle among 2 tasks", `"a" ->`, `"b" ->`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

func TestCheckCyclesAcceptsChain(t *testing.T) {
	rt := &Runtime{}
	a := &Task{label: "a"}
	b := &Task{label: "b", npred: 1}
	c := &Task{label: "c", npred: 1, done: true} // completed tasks are ignored
	a.succs = []*Task{b}
	b.succs = []*Task{c}
	c.succs = []*Task{a} // only cyclic through a done task
	rt.tasks = append(rt.tasks, a, b, c)
	if err := rt.CheckCycles(); err != nil {
		t.Fatalf("CheckCycles() = %v on an acyclic live graph", err)
	}
}

// TestStrictTaskwaitPanicsOnCycle: in strict mode a Taskwait that would
// block forever on a cyclic graph becomes a structured engine error.
func TestStrictTaskwaitPanicsOnCycle(t *testing.T) {
	eng := vtime.NewEngine(nil)
	rt := New(eng, nil, []int{0})
	rt.Strict = true
	cyclicRuntime(rt)
	rt.pending = 2
	eng.Spawn("main", script(func(p *vtime.Proc) { rt.Taskwait(p) }))
	err := eng.Run()
	if err == nil {
		t.Fatal("Run() = nil, want cycle error")
	}
	if !strings.Contains(err.Error(), "dependency cycle") {
		t.Errorf("error %q missing cycle report", err)
	}
}

// TestTaskwaitDeadlockNamesPendingTasks: a hung Taskwait names the stuck
// tasks and their unmet dependency counts in the deadlock dump.
func TestTaskwaitDeadlockNamesPendingTasks(t *testing.T) {
	eng := vtime.NewEngine(nil)
	rt := New(eng, nil, []int{0})
	stuck := &Task{label: "stuck", npred: 1}
	rt.tasks = append(rt.tasks, stuck)
	rt.pending = 1
	eng.Spawn("main", script(func(p *vtime.Proc) { rt.Taskwait(p) }))
	err := eng.Run()
	var de *vtime.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *vtime.DeadlockError", err)
	}
	if !strings.Contains(err.Error(), `"stuck" (1 unmet deps)`) {
		t.Errorf("dump %q does not name the stuck task", err)
	}
}

// TestWaitFromWorkerIsError: a task body that parks its own worker in
// Taskwait or Wait holds the lane the awaited work may need (here: its own
// task). Both become a structured Run error naming the worker, not a
// deadlock.
func TestWaitFromWorkerIsError(t *testing.T) {
	for _, op := range []string{"Taskwait", "Wait"} {
		t.Run(op, func(t *testing.T) {
			eng := vtime.NewEngine(nil)
			rt := New(eng, nil, []int{0})
			var never *Task
			eng.Spawn("main", vtime.ResumeFunc(func(p *vtime.Proc) {
				if never == nil {
					never = rt.Event(p, "never", nil)
					rt.Submit(p, "waiter", nil, 0, func(w *Worker) {
						if op == "Taskwait" {
							rt.Taskwait(w.Proc)
						} else {
							rt.Wait(w.Proc, never)
						}
					})
				}
				rt.Wait(p, never)
			}))
			err := eng.Run()
			want := `vtime: process "worker0.lane0" panicked at t=3e-06: ompss: ` + op +
				` called from worker "worker0.lane0"; a task body waits with Group.Wait or names the node as a predecessor`
			if err == nil || err.Error() != want {
				t.Errorf("Run() = %v, want %s", err, want)
			}
		})
	}
}

func TestPendingSummaryTruncates(t *testing.T) {
	rt := &Runtime{}
	if got := rt.pendingSummary(); got != "none" {
		t.Errorf("empty summary = %q, want none", got)
	}
	for i := 0; i < 12; i++ {
		rt.tasks = append(rt.tasks, &Task{label: "t", npred: 1})
	}
	got := rt.pendingSummary()
	if !strings.HasSuffix(got, ", ...") {
		t.Errorf("summary %q not truncated", got)
	}
	if n := strings.Count(got, `"t"`); n != 8 {
		t.Errorf("summary lists %d tasks, want 8", n)
	}
}

func TestCompactTasks(t *testing.T) {
	rt := &Runtime{}
	var live *Task
	for i := 0; i < 6; i++ {
		task := &Task{label: "t", done: i != 3}
		if i == 3 {
			live = task
		}
		rt.tasks = append(rt.tasks, task)
		if task.done {
			rt.nDone++
		}
	}
	rt.compactTasks()
	if len(rt.tasks) != 1 || rt.tasks[0] != live || rt.nDone != 0 {
		t.Errorf("compactTasks left %d tasks (nDone %d), want the 1 live task", len(rt.tasks), rt.nDone)
	}
}

// TestNamesRenderAsBefore: names kept in parts print exactly the strings
// the executor and the nested loops once built eagerly with strconv and
// fmt.Sprintf ("seg0.12", "fft-z.it3[0:200]"), in deadlock reports and in
// CheckCycles errors alike.
func TestNamesRenderAsBefore(t *testing.T) {
	eng := vtime.NewEngine(nil)
	rt := New(eng, nil, []int{0})
	eng.Spawn("main", script(func(p *vtime.Proc) {
		gate := rt.Event(p, "gate", nil)
		rt.SubmitNamed(p, Name{Text: "seg0.", Seq: 12, Unit: 1}, []*Task{gate}, 0, func(*Worker) {})
		rt.EventNamed(p, Name{Text: "scatter-fw.", Seq: 7}, []*Task{gate})
		rt.Submit(p, "loop", []*Task{gate}, 0, func(w *Worker) {
			rt.TaskLoopInGroup(w.Proc, rt.NewGroup(), Name{Text: "fft-z.it", Seq: 3}, 400, 200, func(*Worker, int, int) {})
		})
		rt.Taskwait(p)
	}))
	err := eng.Run()
	for _, want := range []string{`"gate" (0 unmet deps)`, `"seg0.12" (1 unmet deps)`, `"scatter-fw.7" (1 unmet deps)`, `"loop" (1 unmet deps)`} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("deadlock report %v does not name %s", err, want)
		}
	}
	chunk := &Task{label: "fft-z.it", seq: 3, numbered: true, lo: 0, hi: 200}
	if got := chunk.name(); got != fmt.Sprintf("%s.it%d[%d:%d]", "fft-z", 3, 0, 200) {
		t.Errorf("loop chunk name %q", got)
	}
	a := &Task{label: "pack.", seq: 4, numbered: true, npred: 1}
	b := &Task{label: "b", npred: 1}
	a.succ, b.succ = b, a
	cyc := &Runtime{tasks: []*Task{a, b}}
	if err := cyc.CheckCycles(); err == nil || !strings.Contains(err.Error(), `"pack.4" -> "b" -> "pack.4"`) {
		t.Errorf("CheckCycles() = %v, want the cycle through pack.4 named", err)
	}
}

// TestReservedNodesComeFromTheSlab: nodes submitted within a reservation
// share one allocation, and a body shared by every task learns from
// Worker.Running which task it runs.
func TestReservedNodesComeFromTheSlab(t *testing.T) {
	var ran []Name
	body := func(w *Worker) { ran = append(ran, w.Running()) }
	runTasks(t, 1, func(p *vtime.Proc, rt *Runtime) {
		rt.Reserve(3)
		slab := rt.slab
		var prev *Task
		for i := 0; i < 3; i++ {
			prev = rt.SubmitNamed(p, Name{Text: "u.", Seq: 9, Unit: i}, []*Task{prev}, 0, body)
			if prev != &slab[i] {
				t.Errorf("node %d is not slab entry %d", i, i)
			}
		}
		if extra := rt.Submit(p, "past the reservation", nil, 0, func(*Worker) {}); extra == nil {
			t.Error("Submit past the reservation returned nil")
		}
	})
	want := []Name{{"u.", 9, 0}, {"u.", 9, 1}, {"u.", 9, 2}}
	if len(ran) != 3 || ran[0] != want[0] || ran[1] != want[1] || ran[2] != want[2] {
		t.Errorf("shared body ran %v, want %v", ran, want)
	}
}
