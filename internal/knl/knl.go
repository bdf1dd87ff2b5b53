// Package knl models an Intel Knights Landing (KNL) node as a
// processor-sharing machine for the vtime discrete-event simulator, plus an
// on-node communication cost model.
//
// The model captures the two effects the paper's analysis identified:
//
//  1. Shared-resource contention: the more cores simultaneously execute
//     high-intensity phases, the lower every phase's IPC (Table I shows IPC
//     scalability collapsing from 100 % at 8 ranks to 28 % at 128 ranks).
//     Each intensity class places a bandwidth-like demand on a node-shared
//     resource; the total demand drives a saturating slowdown curve.
//
//  2. Hyper-threading: hardware threads on one core share issue slots. Two
//     compute-intensive threads each run at roughly half IPC (the paper's
//     hyper-threading observation), while a compute-intensive thread paired
//     with a memory-bound one loses much less — which is why the
//     de-synchronized OmpSs version still profits from 2x hyper-threading.
//
// Parameters are calibrated in params.go against the phase IPCs of Figure 3
// and the IPC-scalability column of Table I; see EXPERIMENTS.md for the
// resulting paper-vs-model comparison.
package knl

import (
	"fmt"
	"math"

	"repro/internal/vtime"
)

// Class is a compute-phase intensity class. It determines base IPC, issue
// slot demand, shared-resource demand and contention sensitivity.
type Class int

const (
	// ClassMem is a memory-dominated phase with very low IPC, e.g. the
	// preparation/zeroing of the psi work arrays (~0.06 IPC in Fig. 3).
	ClassMem Class = iota
	// ClassStream is a streaming compute phase of moderate IPC, e.g. the
	// batched 1-D FFTs along Z (~0.52 IPC in Fig. 3).
	ClassStream
	// ClassVector is the main high-intensity compute phase, e.g. the 2-D
	// XY FFTs and the V(r) application (~0.77 IPC in Fig. 3).
	ClassVector
	numClasses
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassMem:
		return "mem"
	case ClassStream:
		return "stream"
	case ClassVector:
		return "vector"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// Params holds every calibration constant of the node model. DefaultParams
// returns the values fitted to the paper; tests and ablations may vary them.
type Params struct {
	Cores int     // physical cores on the node (68 on the KNL test system)
	Freq  float64 // core frequency in Hz (1.4 GHz)

	// BaseIPC is the uncontended instructions-per-cycle of each class.
	BaseIPC [numClasses]float64
	// IssueDemand is the fraction of a core's issue slots a thread of the
	// class wants. Threads on one core scale down proportionally when the
	// sum exceeds 1.
	IssueDemand [numClasses]float64
	// BWDemand is the demand a running thread of the class places on the
	// node-shared resource (mesh/MCDRAM bandwidth), in arbitrary units of
	// "fully-streaming cores".
	BWDemand [numClasses]float64
	// Sens is the sensitivity of the class to node-level contention:
	// effective IPC multiplies by slowdown^Sens.
	Sens [numClasses]float64
	// TileDemand optionally models the KNL tile structure (two cores share
	// one L2): a thread of the class demands this fraction of the tile's
	// L2 bandwidth, and threads on a tile scale down proportionally when
	// the sum exceeds 1. All zeros (the calibrated default) disables the
	// tile level; the sensitivity study enables it to show the headline
	// conclusion does not depend on it.
	TileDemand [numClasses]float64
	// ContA and ContP shape the saturating slowdown curve
	// S(load) = 1/(1+ContA*load^ContP).
	ContA float64
	ContP float64

	// CommLatency is the per-participant latency charge of a collective
	// exchange (seconds); an Alltoall among k ranks pays (k-1) of these.
	CommLatency float64
	// NodeBandwidth is the aggregate on-node copy bandwidth available to
	// intra-node MPI, in bytes/second, shared by all communicating lanes.
	NodeBandwidth float64
	// EndpointBandwidth caps the MPI bandwidth of a single rank's
	// endpoint, in bytes/second. A multi-threaded rank pushing many
	// concurrent collectives through one endpoint is limited by it (its
	// transfers additionally serialize on the endpoint), which is why the
	// task-based version's transfer efficiency falls below the original's
	// in Table II of the paper.
	EndpointBandwidth float64

	// InstrPerFlop converts floating-point operation counts of the FFT
	// kernels into retired instructions for the IPC accounting.
	InstrPerFlop float64
	// InstrPerByte converts bytes touched by memory-bound phases
	// (pack/unpack/zero-fill) into retired instructions.
	InstrPerByte float64
	// Jitter is the relative execution-time variance of a compute phase
	// (cache, TLB and page placement effects): each phase instance's work
	// varies deterministically within ±Jitter. The statically synchronized
	// original version pays the maximum over ranks at every collective
	// (the load-balance losses of Table I), while the dynamically
	// scheduled task version absorbs the variance and accumulates the
	// phase de-synchronization of Figure 7.
	Jitter float64
}

// Node is the one KNL node a run occupies, hosting a fixed number of
// hardware lanes. It implements vtime.Machine for the compute phases and
// prices the mpi layer's transfers (AlltoallTime).
type Node struct {
	P     Params
	Lanes int
	core  []int // lane -> physical core

	// Scratch of Rates, allocated once: per-core issue and bandwidth sums,
	// the cores the jobs run on in first-appearance order and whether a core
	// is listed there yet, and per-tile (core/2) L2 demand sums.
	issueSum, coreBW []float64
	cores            []int
	listed           []bool
	tileSum          []float64
}

// NewNode returns a node with the given parameter set and lane count. Lanes
// are assigned to cores round-robin, so hyper-threading starts only once the
// lane count exceeds the core count (matching the paper's rank placement:
// 128 ranks on 68 cores -> 2 hyper-threads on most cores).
func NewNode(p Params, lanes int) *Node {
	if lanes <= 0 {
		panic("knl: lanes must be positive")
	}
	if lanes > 4*p.Cores {
		panic(fmt.Sprintf("knl: %d lanes exceed 4-way hyper-threading on %d cores", lanes, p.Cores))
	}
	n := &Node{
		P: p, Lanes: lanes, core: make([]int, lanes),
		issueSum: make([]float64, p.Cores),
		coreBW:   make([]float64, p.Cores),
		cores:    make([]int, 0, p.Cores),
		listed:   make([]bool, p.Cores),
		tileSum:  make([]float64, (p.Cores+1)/2),
	}
	for l := 0; l < lanes; l++ {
		n.core[l] = l % p.Cores
	}
	return n
}

// LaneCore returns the physical core hosting a lane.
func (n *Node) LaneCore(lane int) int { return n.core[lane] }

// HyperThreads returns the maximum number of lanes sharing one core.
func (n *Node) HyperThreads() int {
	return (n.Lanes + n.P.Cores - 1) / n.P.Cores
}

// Slowdown evaluates the node-contention curve S(load).
func (p Params) Slowdown(load float64) float64 {
	if load <= 0 {
		return 1
	}
	return 1 / (1 + p.ContA*math.Pow(load, p.ContP))
}

// Rates implements vtime.Machine. For every active job it computes
//
//	rate = Freq * BaseIPC(class) * issueShare(core) * S(load)^Sens(class)
//
// where issueShare divides a core's issue slots among its hyper-threads in
// proportion to their demands, and load is the sum over cores of the
// (issue-share-weighted, capped) bandwidth demands of their jobs.
//
// The per-core sums live in the node's scratch slices: each call zeroes only
// the cores its jobs touch, so a rate refresh allocates nothing. It makes
// three passes over the jobs — list the cores and sum their issue demands;
// sum bandwidth and tile demands; set the rates — and one over the distinct
// cores, to sum the node load.
func (n *Node) Rates(jobs []*vtime.ActiveJob) {
	tiles := n.P.TileDemand != ([numClasses]float64{})
	// Per-core aggregation, in job order; a core's sums are zeroed at its
	// first job.
	n.cores = n.cores[:0]
	for _, j := range jobs {
		core := n.core[j.Lane]
		if !n.listed[core] {
			n.listed[core] = true
			n.cores = append(n.cores, core)
			n.issueSum[core], n.coreBW[core] = 0, 0
			if tiles {
				n.tileSum[core/2] = 0
			}
		}
		n.issueSum[core] += n.P.IssueDemand[Class(j.Class)]
	}
	// Proportional issue sharing: when the demands on a core exceed its
	// slots, thread i receives demand_i/total slots; its speed relative to
	// running alone is therefore 1/total, identical for all threads on the
	// core. Two compute-intensive threads (demand 1 each) halve; a
	// compute-intensive thread paired with a memory-bound one (demand 0.4)
	// only drops to 1/1.4.
	share := func(j *vtime.ActiveJob) float64 {
		tot := n.issueSum[n.core[j.Lane]]
		if tot <= 1 {
			return 1
		}
		return 1 / tot
	}
	// Per core, bandwidth demand is reduced by the issue sharing (a
	// half-speed thread generates half the traffic). Optional tile level:
	// cores 2t and 2t+1 share an L2.
	for _, j := range jobs {
		core := n.core[j.Lane]
		n.coreBW[core] += n.P.BWDemand[Class(j.Class)] * share(j)
		if tiles {
			n.tileSum[core/2] += n.P.TileDemand[Class(j.Class)] * share(j)
		}
	}
	// Node-shared load: each core's bandwidth capped at one fully-streaming
	// core, summed in first-appearance order: the float sum must not depend
	// on anything but the job list, or the last place moves between runs.
	var load float64
	for _, core := range n.cores {
		load += math.Min(n.coreBW[core], 1)
		n.listed[core] = false
	}
	tileShare := func(j *vtime.ActiveJob) float64 {
		if !tiles {
			return 1
		}
		tot := n.tileSum[n.core[j.Lane]/2]
		if tot <= 1 {
			return 1
		}
		return 1 / tot
	}
	s := n.P.Slowdown(load)
	var slow [numClasses]float64
	for c := range slow {
		slow[c] = math.Pow(s, n.P.Sens[c])
	}
	for _, j := range jobs {
		c := Class(j.Class)
		ipc := n.P.BaseIPC[c] * share(j) * tileShare(j) * slow[c]
		j.Rate = n.P.Freq * ipc
	}
}

// effBW returns the effective per-rank transfer bandwidth given commLanes
// lanes communicating concurrently.
func (n *Node) effBW(commLanes int) float64 {
	bw := n.P.NodeBandwidth / float64(commLanes)
	if n.P.EndpointBandwidth > 0 && bw > n.P.EndpointBandwidth {
		bw = n.P.EndpointBandwidth
	}
	return bw
}

// AlltoallTime models the duration of an Alltoall(v) exchange among k ranks
// where each rank sends bytesPerRank in total, while commLanes lanes of the
// node are engaged in communication concurrently (they share
// NodeBandwidth, each capped by EndpointBandwidth).
func (n *Node) AlltoallTime(k int, bytesPerRank float64, commLanes int) float64 {
	if k <= 1 {
		return 0
	}
	if commLanes < k {
		commLanes = k
	}
	return n.P.CommLatency*float64(k-1) + bytesPerRank/n.effBW(commLanes)
}
