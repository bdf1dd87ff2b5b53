package vtime

import (
	"errors"
	"strings"
	"testing"
)

// TestProcPanicBecomesError: a panic inside a simulated process must not
// kill the test binary or hang the engine; Run converts it into an error
// naming the process.
func TestProcPanicBecomesError(t *testing.T) {
	e := NewEngine(nil)
	script(e, "victim", func(p *Proc) { p.Sleep(1) }, func(p *Proc) { panic("boom") })
	script(e, "bystander", func(p *Proc) { p.Sleep(0.5) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want panic error")
	}
	if want := `vtime: process "victim" panicked at t=1: boom`; err.Error() != want {
		t.Errorf("Run() = %q, want %q", err, want)
	}
}

// strandsLaneThree rates every job 1, except a job on lane 3 running alone,
// which it gives the invalid rate 0.
type strandsLaneThree struct{}

func (strandsLaneThree) Rates(jobs []*ActiveJob) {
	for _, j := range jobs {
		j.Rate = 1
		if len(jobs) == 1 && j.Lane == 3 {
			j.Rate = 0
		}
	}
}

// TestInvalidRateIsRunError: a machine that sets an invalid rate ends Run
// with an error naming the job's lane and class — here on the removal
// path, when the job that kept the survivor company finishes — and every
// process is done after the run.
func TestInvalidRateIsRunError(t *testing.T) {
	e := NewEngine(strandsLaneThree{})
	script(e, "short", func(p *Proc) { p.Compute(Job{Work: 1, Lane: 0}) })
	script(e, "survivor", func(p *Proc) { p.Compute(Job{Work: 2, Class: 2, Lane: 3}) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want an invalid-rate error")
	}
	for _, want := range []string{"invalid rate 0", "lane 3 class 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	checkReleased(t, e)
}

// TestBlockOnDescriptionInDump: the closure handed to BlockOn supplies the
// waits-on line of the structured deadlock dump, evaluated lazily at dump
// time.
func TestBlockOnDescriptionInDump(t *testing.T) {
	e := NewEngine(nil)
	script(e, "estragon", func(p *Proc) { p.Sleep(2) }, func(p *Proc) {
		p.BlockOn(func() string { return "waiting for godot" })
	})
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if de.At != 2 {
		t.Errorf("deadlock at t=%g, want 2", de.At)
	}
	if len(de.Blocked) != 1 {
		t.Fatalf("blocked %d, want 1", len(de.Blocked))
	}
	b := de.Blocked[0]
	if b.Name != "estragon" || b.Since != 2 || b.WaitingOn != "waiting for godot" {
		t.Errorf("dump = %+v, want estragon since t=2 waiting for godot", b)
	}
}

// TestBareBlockStillDiagnosable: Block without a description falls back to
// a placeholder rather than an empty waits-on line.
func TestBareBlockStillDiagnosable(t *testing.T) {
	e := NewEngine(nil)
	script(e, "mute", func(p *Proc) { p.Block() })
	err := e.Run()
	var de *DeadlockError
	if !errors.As(err, &de) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if !strings.Contains(de.Blocked[0].WaitingOn, "unknown") {
		t.Errorf("WaitingOn = %q, want unknown placeholder", de.Blocked[0].WaitingOn)
	}
}

// TestBlockOfAnotherProcIsError: a process that blocks a process other
// than itself — a task body waiting through a context captured from
// outside it — ends the run with an error naming both, raised inside the
// running process rather than as a host panic in the engine loop.
func TestBlockOfAnotherProcIsError(t *testing.T) {
	e := NewEngine(nil)
	var wq WaitQueue
	owner := script(e, "owner", func(p *Proc) { p.Sleep(1) })
	script(e, "intruder", func(p *Proc) { wq.Wait(owner) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want an error")
	}
	want := `vtime: process "intruder" panicked at t=0: vtime: process "owner" blocked while process "intruder" was running; a process may only block itself`
	if err.Error() != want {
		t.Errorf("Run() = %q, want %q", err, want)
	}
}

// TestCallbackSuspendsOncePerTurn: a process that books a second suspension
// in one turn — a body written as if Sleep blocked — ends the run with an
// error naming it.
func TestCallbackSuspendsOncePerTurn(t *testing.T) {
	e := NewEngine(nil)
	e.Spawn("straight", ResumeFunc(func(p *Proc) {
		p.Sleep(1)
		p.Sleep(1)
	}))
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `process "straight" suspended twice in one turn`) {
		t.Fatalf("Run() = %v, want a suspended-twice error", err)
	}
}
