package main

import (
	"runtime"
	"sync"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// sample is one op. For the open loop start is the time the request was due,
// not the time it was sent, so a stall charges the requests queued behind it.
type sample struct {
	start, end time.Time
	ok         bool
}

func (s sample) ms() float64 { return float64(s.end.Sub(s.start)) / 1e6 }

// windows is the number of equal slices the measured phase of a serving
// workload is cut into (kernel_batch cuts one per second, sim_paper one per
// cycle). Every timing metric is computed per slice and the median slice
// reported, so a burst from a neighbour on this shared box spoils one slice,
// not the run. The allocation metrics are the lowest slice: what disturbs
// them — a sync.Pool refilling a scratch buffer after a collection — only
// ever adds, so the minimum is the steady state.
const windows = 5

// measurement is everything one measured phase produced; endToEnd turns it
// into the metrics BENCHMARK.json names.
type measurement struct {
	mu      sync.Mutex // guards samples and lagMS while clients record
	samples []sample
	// bounds are the windows' edges (len = windows+1); cpuAt and memAt are
	// the CPU seconds and allocation counters of the program under test
	// read at each edge.
	bounds []time.Time
	cpuAt  []float64
	memAt  []memCounters
	// cpuBlocks is, for a quiet measurement, the CPU milliseconds per op of
	// each block of consecutive ops.
	cpuBlocks []float64
	// clientCPU is the harness's own CPU seconds over the phase.
	clientCPU float64
	setupS    []float64
	// limitMS is the workload's latency limit for slo_ok_ratio.
	limitMS float64
	// quiet marks kernel_batch: one caller repeating a deterministic,
	// cache-resident computation, whose time on an undisturbed host is one
	// value and which the host can only lengthen. Its timing metrics are
	// built on the fastest op of each window instead of on all ops, the way
	// microbenchmarks reject noise (README.md, "kernel_batch").
	quiet bool
	// lagMS is how long after it was due each op was started.
	lagMS []float64
	// serve holds what a traced serving phase read from the server.
	serve *serverSide
	// sim holds the per-cycle results of sim_paper.
	sim []simCycle
}

func (m *measurement) okLatencies() []float64 {
	lat := make([]float64, 0, len(m.samples))
	for _, s := range m.samples {
		if s.ok {
			lat = append(lat, s.ms())
		}
	}
	return lat
}

func (m *measurement) failed() int {
	n := 0
	for _, s := range m.samples {
		if !s.ok {
			n++
		}
	}
	return n
}

// endToEnd computes the end-to-end metrics of one measured phase.
func (m *measurement) endToEnd() map[string]metric {
	nw := len(m.bounds) - 1
	latIn := make([][]float64, nw)   // latencies of the ops that ended in each window
	cycleIn := make([][]float64, nw) // ms from each such op's start to the next op's
	withinLimit := 0
	for i, s := range m.samples {
		if !s.ok {
			continue
		}
		if s.ms() <= m.limitMS {
			withinLimit++
		}
		for k := 0; k < nw; k++ {
			if s.end.After(m.bounds[k]) && !s.end.After(m.bounds[k+1]) {
				latIn[k] = append(latIn[k], s.ms())
				if m.quiet && i+1 < len(m.samples) {
					cycleIn[k] = append(cycleIn[k], float64(m.samples[i+1].start.Sub(s.start))/1e6)
				}
				break
			}
		}
	}
	var rate, cpu, p50, tail, allocKB, allocs []float64
	for k, lat := range latIn {
		if len(lat) == 0 {
			continue
		}
		n := float64(len(lat))
		cpu = append(cpu, (m.cpuAt[k+1]-m.cpuAt[k])*1e3/n)
		allocKB = append(allocKB, float64(m.memAt[k+1].TotalAlloc-m.memAt[k].TotalAlloc)/1024/n)
		allocs = append(allocs, float64(m.memAt[k+1].Mallocs-m.memAt[k].Mallocs)/n)
		if m.quiet {
			// The window's one latency sample is its fastest op, and its rate
			// that of its fastest op-and-verification.
			p50 = append(p50, lowest(lat))
			if len(cycleIn[k]) > 0 {
				rate = append(rate, 1e3/lowest(cycleIn[k]))
			}
			continue
		}
		rate = append(rate, n/m.bounds[k+1].Sub(m.bounds[k]).Seconds())
		p50 = append(p50, quantile(lat, 0.5))
		tail = append(tail, quantile(lat, 0.9)/quantile(lat, 0.5))
	}
	out := map[string]metric{
		"setup_s":         {median(m.setupS), "s"},
		"ops_per_s":       {median(rate), "1/s"},
		"op_p50_ms":       {median(p50), "ms"},
		"op_p90_over_p50": {median(tail), "ratio"},
		"cpu_ms_per_op":   {median(cpu), "ms"},
		"alloc_kb_per_op": {lowest(allocKB), "KiB"},
		"allocs_per_op":   {lowest(allocs), "count"},
		"slo_ok_ratio":    {float64(withinLimit) / float64(len(m.samples)), "ratio"},
	}
	if m.quiet {
		out["op_p90_over_p50"] = metric{quantile(p50, 0.9) / median(p50), "ratio"}
		out["cpu_ms_per_op"] = metric{lowest(m.cpuBlocks), "ms"}
	}
	return out
}

// edge records the time and the program's CPU and allocation counters at
// one window edge.
func (m *measurement) edge(cpu float64, mem memCounters) {
	m.bounds = append(m.bounds, time.Now())
	m.cpuAt = append(m.cpuAt, cpu)
	m.memAt = append(m.memAt, mem)
}

// sampleWindows calls probe, which records an edge, at the start and at the
// end of each of the n equal windows that make up d, and returns once the
// last edge has passed.
func sampleWindows(t0 time.Time, d time.Duration, n int, probe func() error) error {
	for k := 0; k <= n; k++ {
		time.Sleep(time.Until(t0.Add(d * time.Duration(k) / time.Duration(n))))
		if err := probe(); err != nil {
			return err
		}
	}
	return nil
}

// selfEdge records a window edge of an in-process workload.
func (m *measurement) selfEdge() error {
	m.edge(selfCPUSeconds(), selfMem())
	return nil
}

// selfMem reads this process's allocation counters.
func selfMem() memCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memCounters{TotalAlloc: ms.TotalAlloc, Mallocs: ms.Mallocs}
}

// record adds one op and how long after it was due it was started. Client
// goroutines may call it concurrently.
func (m *measurement) record(s sample, lag time.Duration) {
	m.mu.Lock()
	m.samples = append(m.samples, s)
	m.lagMS = append(m.lagMS, float64(lag)/1e6)
	m.mu.Unlock()
}
