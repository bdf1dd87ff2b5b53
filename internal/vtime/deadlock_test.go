package vtime

import (
	"errors"
	"runtime"
	"strings"
	"testing"
)

// TestProcPanicBecomesError: a panic inside a simulated process must not
// kill the test binary or hang the engine; Run converts it into an error
// naming the process.
func TestProcPanicBecomesError(t *testing.T) {
	e := NewEngine(nil)
	e.Spawn("victim", func(p *Proc) {
		p.Sleep(1)
		panic("boom")
	})
	e.Spawn("bystander", func(p *Proc) { p.Sleep(0.5) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want panic error")
	}
	for _, want := range []string{"victim", "panicked", "boom"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
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
// path, when the job that kept the survivor company finishes — and the run
// leaves no goroutine behind.
func TestInvalidRateIsRunError(t *testing.T) {
	baseline := runtime.NumGoroutine()
	e := NewEngine(strandsLaneThree{})
	e.Spawn("short", func(p *Proc) { p.Compute(Job{Work: 1, Lane: 0}) })
	e.Spawn("survivor", func(p *Proc) { p.Compute(Job{Work: 2, Class: 2, Lane: 3}) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want an invalid-rate error")
	}
	for _, want := range []string{"invalid rate 0", "lane 3 class 2"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
	checkReleased(t, e, baseline)
}

// TestBlockOnDescriptionInDump: the closure handed to BlockOn supplies the
// waits-on line of the structured deadlock dump, evaluated lazily at dump
// time.
func TestBlockOnDescriptionInDump(t *testing.T) {
	e := NewEngine(nil)
	e.Spawn("estragon", func(p *Proc) {
		p.Sleep(2)
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
	e.Spawn("mute", func(p *Proc) { p.Block() })
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
	owner := e.Spawn("owner", func(p *Proc) { p.Sleep(1) })
	e.Spawn("intruder", func(p *Proc) { wq.Wait(owner) })
	err := e.Run()
	if err == nil {
		t.Fatal("Run() = nil, want an error")
	}
	for _, want := range []string{`"intruder" panicked`, `process "owner" blocked while process "intruder" was running`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}
