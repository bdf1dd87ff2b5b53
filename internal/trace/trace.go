// Package trace records the execution behaviour of simulated runs as state
// intervals per hardware lane, in the spirit of BSC's Extrae tracing
// package. A lane is one hardware thread slot: for pure-MPI runs lane ==
// rank, for MPI+tasks runs lane == rank*threads + thread.
//
// The companion renderers produce Paraver-style views: an ASCII timeline
// (state per lane over time) and a two-dimensional IPC histogram
// (lane x IPC-bin, weighted by accumulated duration), the two views used in
// Figures 3 and 7 of the paper. Package internal/pop computes the POP
// efficiency model from a Trace.
package trace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Kind classifies what a lane was doing during an interval.
type Kind int

const (
	// KindCompute is useful computation (a phase of the FFT pipeline).
	KindCompute Kind = iota
	// KindMPISync is time spent waiting inside an MPI call for the other
	// participants to arrive (load-imbalance-induced wait).
	KindMPISync
	// KindMPITransfer is time spent moving data inside an MPI call.
	KindMPITransfer
	// KindRuntime is task-runtime overhead (scheduling, dependency upkeep).
	KindRuntime
	// KindIdle is a worker thread with no ready task.
	KindIdle
)

// String returns a short human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindMPISync:
		return "mpi-sync"
	case KindMPITransfer:
		return "mpi-transfer"
	case KindRuntime:
		return "runtime"
	case KindIdle:
		return "idle"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Interval is one recorded state on one lane.
type Interval struct {
	Lane  int     `json:"lane"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
	Kind  Kind    `json:"kind"`
	// Phase names the compute phase (e.g. "fft-z", "vofr") or MPI call
	// (e.g. "Alltoallv").
	Phase string `json:"phase,omitempty"`
	// Class is the machine intensity class for compute intervals.
	Class int `json:"class,omitempty"`
	// Instr is the number of instructions executed (compute intervals).
	Instr float64 `json:"instr,omitempty"`
	// Comm identifies the communicator of an MPI interval.
	Comm string `json:"comm,omitempty"`
	// Tag is the collective matching tag of an MPI interval.
	Tag int `json:"tag,omitempty"`
}

// Duration returns End-Start.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Trace holds all intervals of one run.
type Trace struct {
	Lanes     int               `json:"lanes"`
	Freq      float64           `json:"freq"` // core frequency in Hz, for IPC
	Meta      map[string]string `json:"meta,omitempty"`
	Intervals []Interval        `json:"intervals"`
}

// New returns an empty trace for the given number of lanes and core
// frequency in Hz.
func New(lanes int, freq float64) *Trace {
	return &Trace{Lanes: lanes, Freq: freq, Meta: map[string]string{}}
}

// Record appends an interval. Zero-duration intervals are dropped.
func (t *Trace) Record(iv Interval) {
	if iv.End < iv.Start {
		panic(fmt.Sprintf("trace: interval ends before it starts: %+v", iv))
	}
	if iv.Lane < 0 || iv.Lane >= t.Lanes {
		panic(fmt.Sprintf("trace: lane %d out of range [0,%d)", iv.Lane, t.Lanes))
	}
	if iv.End == iv.Start {
		return
	}
	t.Intervals = append(t.Intervals, iv)
}

// IPC returns the instructions-per-cycle of a compute interval, or 0 for
// non-compute intervals.
func (t *Trace) IPC(iv Interval) float64 {
	if iv.Kind != KindCompute || iv.Duration() == 0 {
		return 0
	}
	return iv.Instr / (iv.Duration() * t.Freq)
}

// Span returns the earliest start and the latest end over all intervals.
func (t *Trace) Span() (start, end float64) {
	if len(t.Intervals) == 0 {
		return 0, 0
	}
	start, end = t.Intervals[0].Start, t.Intervals[0].End
	for _, iv := range t.Intervals {
		if iv.Start < start {
			start = iv.Start
		}
		if iv.End > end {
			end = iv.End
		}
	}
	return start, end
}

// Runtime returns the total span duration of the trace.
func (t *Trace) Runtime() float64 {
	s, e := t.Span()
	return e - s
}

// TimeByKind accumulates, per lane, the time spent in the given kind.
func (t *Trace) TimeByKind(k Kind) []float64 {
	out := make([]float64, t.Lanes)
	for _, iv := range t.Intervals {
		if iv.Kind == k {
			out[iv.Lane] += iv.Duration()
		}
	}
	return out
}

// InstrByLane accumulates executed instructions per lane over compute
// intervals.
func (t *Trace) InstrByLane() []float64 {
	out := make([]float64, t.Lanes)
	for _, iv := range t.Intervals {
		if iv.Kind == KindCompute {
			out[iv.Lane] += iv.Instr
		}
	}
	return out
}

// TotalInstr returns the total instructions over all compute intervals.
func (t *Trace) TotalInstr() float64 {
	var s float64
	for _, iv := range t.Intervals {
		if iv.Kind == KindCompute {
			s += iv.Instr
		}
	}
	return s
}

// TotalComputeTime returns the accumulated compute time over all lanes.
func (t *Trace) TotalComputeTime() float64 {
	var s float64
	for _, iv := range t.Intervals {
		if iv.Kind == KindCompute {
			s += iv.Duration()
		}
	}
	return s
}

// AvgIPC returns the instruction-weighted average IPC over compute
// intervals: total instructions / total compute cycles.
func (t *Trace) AvgIPC() float64 {
	ct := t.TotalComputeTime()
	if ct == 0 {
		return 0
	}
	return t.TotalInstr() / (ct * t.Freq)
}

// PhaseAvgIPC returns the average IPC of compute intervals whose Phase
// matches one of the given names (duration-weighted via instructions).
func (t *Trace) PhaseAvgIPC(phases ...string) float64 {
	want := map[string]bool{}
	for _, p := range phases {
		want[p] = true
	}
	var instr, cycles float64
	for _, iv := range t.Intervals {
		if iv.Kind == KindCompute && want[iv.Phase] {
			instr += iv.Instr
			cycles += iv.Duration() * t.Freq
		}
	}
	if cycles == 0 {
		return 0
	}
	return instr / cycles
}

// Phases returns the distinct compute phase names, sorted.
func (t *Trace) Phases() []string {
	set := map[string]bool{}
	for _, iv := range t.Intervals {
		if iv.Kind == KindCompute {
			set[iv.Phase] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Save writes the trace as JSON to path.
func (t *Trace) Save(path string) error {
	b, err := json.MarshalIndent(t, "", " ")
	if err != nil {
		return fmt.Errorf("trace: marshal: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace: write %s: %w", path, err)
	}
	return nil
}

// Load reads a JSON trace from path.
func Load(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("trace: read %s: %w", path, err)
	}
	var t Trace
	if err := json.Unmarshal(b, &t); err != nil {
		return nil, fmt.Errorf("trace: parse %s: %w", path, err)
	}
	return &t, nil
}

// Recorder is a convenience for emitting intervals from one lane with
// begin/end bracketing against a virtual clock. Zero-duration intervals are
// dropped before they reach the trace.
type Recorder struct {
	S    *Trace
	Lane int
}

// Compute records a compute interval.
func (r Recorder) Compute(start, end float64, phase string, class int, instr float64) {
	if end == start {
		return
	}
	r.S.Record(Interval{Lane: r.Lane, Start: start, End: end, Kind: KindCompute,
		Phase: phase, Class: class, Instr: instr})
}

// MPI records the two components of an MPI call: the wait for other
// participants (sync) and the data movement (transfer).
func (r Recorder) MPI(call, comm string, tag int, start, syncEnd, end float64) {
	if syncEnd > start {
		r.S.Record(Interval{Lane: r.Lane, Start: start, End: syncEnd, Kind: KindMPISync,
			Phase: call, Comm: comm, Tag: tag})
	}
	if end > syncEnd {
		r.S.Record(Interval{Lane: r.Lane, Start: syncEnd, End: end, Kind: KindMPITransfer,
			Phase: call, Comm: comm, Tag: tag})
	}
}

// Runtime records task-runtime overhead.
func (r Recorder) Runtime(start, end float64) {
	if end == start {
		return
	}
	r.S.Record(Interval{Lane: r.Lane, Start: start, End: end, Kind: KindRuntime})
}

// Idle records worker idle time.
func (r Recorder) Idle(start, end float64) {
	if end == start {
		return
	}
	r.S.Record(Interval{Lane: r.Lane, Start: start, End: end, Kind: KindIdle})
}
