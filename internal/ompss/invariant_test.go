package ompss

import (
	"errors"
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
	eng.Spawn("main", func(p *vtime.Proc) { rt.Taskwait(p) })
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
	eng.Spawn("main", func(p *vtime.Proc) { rt.Taskwait(p) })
	err := eng.Run()
	var de *vtime.DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *vtime.DeadlockError", err)
	}
	if !strings.Contains(err.Error(), `"stuck" (1 unmet deps)`) {
		t.Errorf("dump %q does not name the stuck task", err)
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
