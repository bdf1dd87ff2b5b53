package vtime_test

import (
	"fmt"

	"repro/internal/vtime"
)

func ExampleEngine() {
	// Two processes meet in virtual time: the fast one waits on a queue
	// until the slow one arrives and wakes it.
	eng := vtime.NewEngine(nil)
	var wq vtime.WaitQueue
	eng.Spawn("fast", func(p *vtime.Proc) {
		p.Sleep(1)
		wq.Wait(p)
		fmt.Printf("fast released at t=%v\n", p.Now())
	})
	eng.Spawn("slow", func(p *vtime.Proc) {
		p.Sleep(5)
		wq.WakeAll(p)
		fmt.Printf("slow released at t=%v\n", p.Now())
	})
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
		eng.Spawn("worker", func(p *vtime.Proc) {
			p.Compute(vtime.Job{Work: 1})
			fmt.Printf("done at t=%v\n", p.Now())
		})
	}
	if err := eng.Run(); err != nil {
		fmt.Println(err)
	}
	// Output:
	// done at t=2
	// done at t=2
}
