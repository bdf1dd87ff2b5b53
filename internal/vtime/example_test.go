package vtime_test

import (
	"fmt"

	"repro/internal/vtime"
)

func ExampleEngine() {
	// Two processes meet in virtual time: the fast one waits on a queue
	// until the slow one arrives and wakes it. Each is a state machine:
	// Sleep and Wait book a wake-up and return, and the process's Resume
	// returns too, to be called again at the wake-up.
	eng := vtime.NewEngine(nil)
	var wq vtime.WaitQueue
	fast, slow := 0, 0
	eng.Spawn("fast", vtime.ResumeFunc(func(p *vtime.Proc) {
		switch fast++; fast {
		case 1:
			p.Sleep(1)
		case 2:
			wq.Wait(p)
		case 3:
			fmt.Printf("fast released at t=%v\n", p.Now())
		}
	}))
	eng.Spawn("slow", vtime.ResumeFunc(func(p *vtime.Proc) {
		if slow++; slow == 1 {
			p.Sleep(5)
			return
		}
		wq.WakeAll(p)
		fmt.Printf("slow released at t=%v\n", p.Now())
	}))
	if err := eng.Run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// slow released at t=5
	// fast released at t=5
}

// halves is a processor-sharing machine with capacity 1 work-unit/second.
type halves struct{}

func (halves) Rates(jobs []*vtime.ActiveJob) {
	for _, j := range jobs {
		j.Rate = 1 / float64(len(jobs))
	}
}

func ExampleProc_Compute() {
	// Two equal jobs on a shared machine each run at half rate.
	eng := vtime.NewEngine(halves{})
	for i := 0; i < 2; i++ {
		started := false
		eng.Spawn("worker", vtime.ResumeFunc(func(p *vtime.Proc) {
			if !started {
				started = true
				p.Compute(vtime.Job{Work: 1}) // suspends until the job completes
				return
			}
			fmt.Printf("done at t=%v\n", p.Now())
		}))
	}
	if err := eng.Run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// done at t=2
	// done at t=2
}
