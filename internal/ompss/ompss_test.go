package ompss

import (
	"math/rand"
	"testing"

	"repro/internal/knl"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// script is a process body that runs steps in order, each of which
// suspends the process at most once, as its last action.
func script(steps ...func(p *vtime.Proc)) vtime.ResumeFunc {
	next := 0
	return func(p *vtime.Proc) {
		for next < len(steps) && !p.Suspended() {
			next++
			steps[next-1](p)
		}
	}
}

// task is a task body that runs steps in order, each of which suspends the
// worker or books a group wait at most once, as its last action.
func task(steps ...func(w *Worker)) func(w *Worker) {
	next := 0
	return func(w *Worker) {
		for n := len(w.frames); next < len(steps) && !w.Proc.Suspended() && len(w.frames) == n; {
			next++
			steps[next-1](w)
		}
	}
}

// sleep is a task step that sleeps for d.
func sleep(d vtime.Time) func(w *Worker) { return func(w *Worker) { w.Proc.Sleep(d) } }

// spawnMain spawns a main process that runs steps as script does, waits for
// every task of rt with Taskwait, calls waited if it is set, and shuts rt
// down.
func spawnMain(eng *vtime.Engine, rt *Runtime, waited func(p *vtime.Proc), steps ...func(p *vtime.Proc)) {
	run := script(steps...)
	eng.Spawn("main", vtime.ResumeFunc(func(p *vtime.Proc) {
		if run(p); p.Suspended() || !rt.Taskwait(p) {
			return
		}
		if waited != nil {
			waited(p)
		}
		rt.Shutdown(p)
	}))
}

// runTasks drives a main process that submits tasks via body, taskwaits and
// shuts down, with nWorkers workers on a small node.
func runTasks(t *testing.T, nWorkers int, body func(p *vtime.Proc, rt *Runtime)) *trace.Trace {
	t.Helper()
	params := knl.DefaultParams()
	node := knl.NewNode(params, nWorkers)
	eng := vtime.NewEngine(node)
	tr := trace.New(nWorkers, params.Freq)
	lanes := make([]int, nWorkers)
	for i := range lanes {
		lanes[i] = i
	}
	rt := New(eng, tr, lanes)
	rt.Overhead = 0
	spawnMain(eng, rt, nil, func(p *vtime.Proc) { body(p, rt) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestIndependentTasksRunInParallel(t *testing.T) {
	var ends []float64
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		for i := 0; i < 4; i++ {
			rt.Submit(p, "t", nil, 0, task(sleep(1), func(w *Worker) { ends = append(ends, w.Proc.Now()) }))
		}
	})
	for _, e := range ends {
		if e != 1 {
			t.Fatalf("task ended at %v, want 1 (parallel)", e)
		}
	}
}

// A writer, two readers after it and a second writer after both: the
// flow edges of one buffer, spelled as predecessors.
func TestFlowDependencySerializes(t *testing.T) {
	var order []string
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		w1 := rt.Submit(p, "w1", nil, 0, task(sleep(1), func(w *Worker) { order = append(order, "w1") }))
		r1 := rt.Submit(p, "r1", []*Task{w1}, 0, func(w *Worker) {
			order = append(order, "r1")
		})
		r2 := rt.Submit(p, "r2", []*Task{w1}, 0, func(w *Worker) {
			order = append(order, "r2")
		})
		rt.Submit(p, "w2", []*Task{r1, r2}, 0, func(w *Worker) {
			order = append(order, "w2")
		})
	})
	if len(order) != 4 || order[0] != "w1" || order[3] != "w2" {
		t.Fatalf("order %v: writer must come first, second writer last", order)
	}
}

func TestReadersRunConcurrently(t *testing.T) {
	readerEnd := map[string]float64{}
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		wr := rt.Submit(p, "w", nil, 0, task(sleep(1)))
		for _, nm := range []string{"a", "b", "c"} {
			rt.Submit(p, nm, []*Task{wr}, 0, task(sleep(1), func(w *Worker) { readerEnd[nm] = w.Proc.Now() }))
		}
	})
	for nm, e := range readerEnd {
		if e != 2 {
			t.Fatalf("reader %s ended at %v, want 2 (concurrent after writer)", nm, e)
		}
	}
}

func TestAntiDependencyWaitsForReaders(t *testing.T) {
	var w2Start float64
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		w1 := rt.Submit(p, "w1", nil, 0, func(w *Worker) {})
		r := rt.Submit(p, "r", []*Task{w1}, 0, task(sleep(2)))
		rt.Submit(p, "w2", []*Task{w1, r}, 0, func(w *Worker) {
			w2Start = w.Proc.Now()
		})
	})
	if w2Start < 2 {
		t.Fatalf("second writer started at %v before reader finished at 2", w2Start)
	}
}

func TestIndependentChainsOverlap(t *testing.T) {
	// Two independent flow chains (as in per-iteration FFT tasks) must
	// overlap on two workers.
	var total float64
	runTasks(t, 2, func(p *vtime.Proc, rt *Runtime) {
		for c := 0; c < 2; c++ {
			var prev *Task
			for s := 0; s < 3; s++ {
				prev = rt.Submit(p, "step", []*Task{prev}, 0, task(sleep(1), func(w *Worker) { total = w.Proc.Now() }))
			}
		}
	})
	if total != 3 {
		t.Fatalf("two independent 3-step chains on 2 workers finished at %v, want 3", total)
	}
}

func TestPriorityOrdering(t *testing.T) {
	var order []string
	runTasks(t, 1, func(p *vtime.Proc, rt *Runtime) {
		// Block the single worker so submissions accumulate.
		rt.Submit(p, "gate", nil, 0, task(sleep(1)))
		rt.Submit(p, "low", nil, 0, func(w *Worker) { order = append(order, "low") })
		rt.Submit(p, "high", nil, 5, func(w *Worker) { order = append(order, "high") })
	})
	if len(order) != 2 || order[0] != "high" {
		t.Fatalf("order %v, want high first", order)
	}
}

func TestTaskwaitBlocksUntilDone(t *testing.T) {
	var waitedUntil float64
	params := knl.DefaultParams()
	node := knl.NewNode(params, 2)
	eng := vtime.NewEngine(node)
	rt := New(eng, nil, []int{0, 1})
	rt.Overhead = 0
	spawnMain(eng, rt, func(p *vtime.Proc) { waitedUntil = p.Now() }, func(p *vtime.Proc) {
		rt.Submit(p, "slow", nil, 0, task(sleep(5)))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if waitedUntil != 5 {
		t.Fatalf("taskwait returned at %v, want 5", waitedUntil)
	}
}

func TestNestedSubmissionFromTask(t *testing.T) {
	var childRan bool
	runTasks(t, 2, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "parent", nil, 0, func(w *Worker) {
			rt.Submit(w.Proc, "child", nil, 0, func(w2 *Worker) {
				childRan = true
			})
		})
	})
	if !childRan {
		t.Fatal("nested task did not run")
	}
}

func TestComputeRecordsTraceAndTime(t *testing.T) {
	tr := runTasks(t, 1, func(p *vtime.Proc, rt *Runtime) {
		rt.Submit(p, "c", nil, 0, func(w *Worker) {
			w.Compute("phase-a", knl.ClassVector, 1e6)
		})
	})
	if tr.TotalInstr() != 1e6 {
		t.Fatalf("instr %v", tr.TotalInstr())
	}
	if tr.TotalComputeTime() <= 0 {
		t.Fatal("no compute time recorded")
	}
}

func TestOverheadRecordedAsRuntime(t *testing.T) {
	params := knl.DefaultParams()
	node := knl.NewNode(params, 1)
	eng := vtime.NewEngine(node)
	tr := trace.New(1, params.Freq)
	rt := New(eng, tr, []int{0})
	rt.Overhead = 1e-3
	spawnMain(eng, rt, nil, func(p *vtime.Proc) {
		for i := 0; i < 3; i++ {
			rt.Submit(p, "t", nil, 0, func(w *Worker) {})
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	rtTime := tr.TimeByKind(trace.KindRuntime)[0]
	if rtTime < 2.9e-3 || rtTime > 3.1e-3 {
		t.Fatalf("runtime overhead time %v, want ~3e-3", rtTime)
	}
}

func TestIdleRecordedWhileStarved(t *testing.T) {
	params := knl.DefaultParams()
	node := knl.NewNode(params, 2)
	eng := vtime.NewEngine(node)
	tr := trace.New(2, params.Freq)
	rt := New(eng, tr, []int{0, 1})
	rt.Overhead = 0
	spawnMain(eng, rt, nil, func(p *vtime.Proc) { p.Sleep(2) }, // workers idle for 2s
		func(p *vtime.Proc) { rt.Submit(p, "t", nil, 0, func(w *Worker) {}) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	idle := tr.TimeByKind(trace.KindIdle)
	if idle[0] < 1.9 && idle[1] < 1.9 {
		t.Fatalf("no worker recorded starvation idle: %v", idle)
	}
}

func TestSchedulingDeterministic(t *testing.T) {
	run := func() []float64 {
		var ends []float64
		runTasks(t, 3, func(p *vtime.Proc, rt *Runtime) {
			for i := 0; i < 9; i++ {
				d := float64(i%3+1) * 0.25
				rt.Submit(p, "t", nil, 0, task(sleep(d), func(w *Worker) { ends = append(ends, w.Proc.Now()) }))
			}
		})
		return ends
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different task counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic schedule at %d: %v vs %v", i, a, b)
		}
	}
}

// Property: for random dependency graphs, the runtime executes every task
// exactly once, and no task starts before all of its predecessors have
// completed. Predecessor lists may repeat a node or hold nil, and some
// predecessors are events completed by a task that runs later.
func TestPropertyRandomDAGRespectsDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		nTasks := 5 + rng.Intn(30)
		nWorkers := 1 + rng.Intn(4)
		preds := make([][]int, nTasks) // indices of earlier tasks
		for i := 1; i < nTasks; i++ {
			for d := rng.Intn(4); d > 0; d-- {
				preds[i] = append(preds[i], rng.Intn(i))
			}
		}
		start := make([]float64, nTasks)
		end := make([]float64, nTasks)
		ran := make([]int, nTasks)
		runTasks(t, nWorkers, func(p *vtime.Proc, rt *Runtime) {
			nodes := make([]*Task, nTasks)
			for i := range nodes {
				after := []*Task{nil}
				for _, j := range preds[i] {
					after = append(after, nodes[j])
				}
				begin := func(w *Worker) {
					start[i] = w.Proc.Now()
					w.Proc.Sleep(float64(1+rng.Intn(3)) * 0.125)
				}
				finish := func(w *Worker) {
					ran[i]++
					end[i] = w.Proc.Now()
				}
				if rng.Intn(4) > 0 {
					nodes[i] = rt.Submit(p, "t", after, 0, task(begin, finish))
					continue
				}
				// An event standing for task i: a releaser task runs
				// the body and completes it.
				ev := rt.Event(p, "ev", nil)
				rt.Submit(p, "releaser", after, 0, task(begin, finish, func(w *Worker) { rt.Complete(w.Proc, ev) }))
				nodes[i] = ev
			}
		})
		for i, n := range ran {
			if n != 1 {
				t.Fatalf("trial %d: task %d ran %d times", trial, i, n)
			}
			for _, j := range preds[i] {
				if start[i] < end[j] {
					t.Fatalf("trial %d: task %d started at %v before its predecessor %d ended at %v",
						trial, i, start[i], j, end[j])
				}
			}
		}
	}
}

// Property: with every task after the one before it, execution is fully
// serial regardless of worker count — elapsed equals the sum of task
// durations.
func TestPropertyFullChainIsSerial(t *testing.T) {
	var end float64
	const n = 12
	runTasks(t, 4, func(p *vtime.Proc, rt *Runtime) {
		var prev *Task
		for i := 0; i < n; i++ {
			prev = rt.Submit(p, "c", []*Task{prev}, 0, task(sleep(0.5), func(w *Worker) { end = w.Proc.Now() }))
		}
	})
	if end != n*0.5 {
		t.Fatalf("chain finished at %v, want %v", end, n*0.5)
	}
}
