package ompss

import (
	"testing"

	"repro/internal/knl"
	"repro/internal/vtime"
)

func TestGroupWaitBlocksUntilChildrenDone(t *testing.T) {
	var parentEnd float64
	runTasks(t, 3, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			g := rt.NewGroup()
			for i := 0; i < 4; i++ {
				rt.SubmitInGroup(w.Proc, g, "child", nil, 0, func(w2 *Worker) {
					w2.Proc.Sleep(1)
				})
			}
			g.Wait(w)
			parentEnd = w.Proc.Now()
		})
	})
	// 4 children of 1s on 3 workers (parent helps): 2 rounds.
	if parentEnd < 1 || parentEnd > 2.5 {
		t.Fatalf("parent resumed at %v", parentEnd)
	}
}

func TestGroupWaitExecutesTasksInline(t *testing.T) {
	// Single worker: the parent occupies the only worker, so the children
	// can only run if Wait executes them inline.
	var done int
	runTasks(t, 1, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			g := rt.NewGroup()
			for i := 0; i < 3; i++ {
				rt.SubmitInGroup(w.Proc, g, "child", nil, 0, func(w2 *Worker) {
					done++
				})
			}
			g.Wait(w)
		})
	})
	if done != 3 {
		t.Fatalf("children executed: %d", done)
	}
}

func TestTaskLoopInGroupCoversRange(t *testing.T) {
	covered := make([]bool, 17)
	runTasks(t, 2, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			g := rt.NewGroup()
			rt.TaskLoopInGroup(w.Proc, g, Name{Text: "loop.it"}, 17, 4, func(w2 *Worker, lo, hi int) {
				for i := lo; i < hi; i++ {
					covered[i] = true
				}
			})
			g.Wait(w)
			for i, c := range covered {
				if !c {
					t.Errorf("index %d not covered before Wait returned", i)
				}
			}
		})
	})
}

func TestNestedGroupsParallelizeCompute(t *testing.T) {
	// One parent task splits compute over 4 workers via a group: elapsed
	// must approach 1/4 of serial under the unit-rate machine.
	params := knl.DefaultParams()
	node := knl.NewNode(params, 4)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0, 1, 2, 3})
	rt.Overhead = 0
	var elapsed float64
	eng.Spawn("main", func(p *vtime.Proc) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			start := w.Proc.Now()
			g := rt.NewGroup()
			rt.TaskLoopInGroup(w.Proc, g, Name{Text: "chunks.it"}, 8, 2, func(w2 *Worker, lo, hi int) {
				w2.Compute("c", knl.ClassVector, 1e6*float64(hi-lo))
			})
			g.Wait(w)
			elapsed = w.Proc.Now() - start
		})
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Serial would take 8e6 instructions at ~base rate; 4 workers should be
	// within ~2.2x of the perfect quarter (contention slows all four).
	serial := 8e6 / (params.Freq * params.BaseIPC[knl.ClassVector])
	if elapsed > serial/1.8 {
		t.Fatalf("group loop elapsed %v, serial %v — no parallel speedup", elapsed, serial)
	}
}

// An event without predecessors is a promise: the task after it waits
// until another process completes it.
func TestPromiseGatesDependentTask(t *testing.T) {
	var taskStart float64
	runTasks(t, 2, func(p *vtime.Proc, rt *Runtime) {
		pr := rt.Event(p, "comm", nil)
		rt.Submit(p, "consumer", []*Task{pr}, 0, func(w *Worker) {
			taskStart = w.Proc.Now()
		})
		// An unrelated process completes the event at t=3.
		p.Engine().Spawn("fulfiller", func(fp *vtime.Proc) {
			fp.Sleep(3)
			rt.Complete(fp, pr)
		})
	})
	if taskStart < 3 {
		t.Fatalf("consumer started at %v before the event completed at 3", taskStart)
	}
}

// A promise is completed once: a second Complete panics, and so does
// Complete on a task, which only its worker completes.
func TestPromiseDoubleFulfillPanics(t *testing.T) {
	params := knl.DefaultParams()
	node := knl.NewNode(params, 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	panics := 0
	eng.Spawn("main", func(p *vtime.Proc) {
		pr := rt.Event(p, "x", nil)
		rt.Complete(p, pr)
		task := rt.Submit(p, "task", nil, 0, func(w *Worker) {})
		for _, n := range []*Task{pr, task} {
			func() {
				defer func() {
					if recover() != nil {
						panics++
					}
				}()
				rt.Complete(p, n)
			}()
		}
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if panics != 2 {
		t.Fatalf("%d of 2 misplaced Complete calls panicked", panics)
	}
}

// Taskwait waits for outstanding promises as well as tasks.
func TestTaskwaitIncludesPromises(t *testing.T) {
	var waited float64
	params := knl.DefaultParams()
	node := knl.NewNode(params, 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	eng.Spawn("main", func(p *vtime.Proc) {
		pr := rt.Event(p, "comm", nil)
		p.Engine().Spawn("fulfiller", func(fp *vtime.Proc) {
			fp.Sleep(5)
			rt.Complete(fp, pr)
		})
		rt.Taskwait(p)
		waited = p.Now()
		rt.Shutdown(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if waited != 5 {
		t.Fatalf("taskwait returned at %v, want 5", waited)
	}
}

// Regression: a worker waiting on a nested group must NOT pick up arbitrary
// ready tasks (it could block inside an unrelated MPI call and deadlock the
// rank); it may only execute its group's children. The scenario: the only
// other ready task blocks forever — Wait must still return once the
// children (run inline) finish.
func TestGroupWaitDoesNotStealUnrelatedTasks(t *testing.T) {
	var gate vtime.WaitQueue
	var waitReturned bool
	params := knl.DefaultParams()
	node := knl.NewNode(params, 1)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0})
	rt.Overhead = 0
	eng.Spawn("main", func(p *vtime.Proc) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			g := rt.NewGroup()
			// An unrelated "poison" task that would block forever.
			rt.Submit(w.Proc, "poison", nil, 10, func(w2 *Worker) {
				gate.Wait(w2.Proc)
			})
			rt.SubmitInGroup(w.Proc, g, "child", nil, 0, func(w2 *Worker) {})
			g.Wait(w)
			waitReturned = true
			// Unblock the poison task so the run can finish.
			rt.Submit(w.Proc, "release", nil, 0, func(w2 *Worker) {})
		})
		rt.Taskwait(p)
		rt.Shutdown(p)
	})
	// The poison task still blocks at the end; release it from a second
	// process once the parent observed completion.
	eng.Spawn("releaser", func(p *vtime.Proc) {
		for !waitReturned {
			p.Sleep(0.1)
		}
		gate.WakeAll(p)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if !waitReturned {
		t.Fatal("group wait never returned")
	}
}
