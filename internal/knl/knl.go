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
	"slices"

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
	// p is read-only: the mix table and load cache below are derived from
	// it, so a later change would leave them stale.
	p     Params
	Lanes int
	core  []int // lane -> physical core
	tiles bool  // the tile level is on (some TileDemand is non-zero)

	// Scratch of Rates, allocated once: each core's mix code (0 while the
	// core has no job yet) and issue share, the cores the jobs run on in
	// first-appearance order, and per-tile (core/2) L2 demand sums.
	code    []uint32
	share   []float64
	cores   []int
	tileSum []float64
	// spill lists, per core, the classes of the jobs its code no longer
	// holds; allocated at the first core with more jobs than the mix table
	// covers.
	spill [][]Class

	// mixes caches a core's issue share and load contribution by its mix
	// code; a zero share marks an entry not filled yet.
	mixes []mix
	// loads caches the per-class slowdowns by the bits of the node load.
	loads [loadCacheSize]loadEntry
	// slowdowns counts the evaluations of the contention curve, for tests.
	slowdowns int
}

// mix is what a core's ordered job classes decide: the issue share of each
// of its jobs and its capped contribution to the node load.
type mix struct{ share, bw float64 }

// loadCacheBits sizes the load cache. An 8x8x128 run meets about 200
// distinct loads (task-steps about 1 900); 64 direct-mapped slots cut the
// curve's evaluations by 57-95 % per engine, which leaves them a small share
// of a refresh.
const (
	loadCacheBits = 6
	loadCacheSize = 1 << loadCacheBits
)

// loadEntry is one direct-mapped slot of the load cache; a zero slow[0]
// marks an empty slot (a slowdown is positive).
type loadEntry struct {
	bits uint64
	slow [numClasses]float64
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
		p: p, Lanes: lanes, core: make([]int, lanes),
		tiles: p.TileDemand != ([numClasses]float64{}),
		code:  make([]uint32, p.Cores),
		share: make([]float64, p.Cores),
		cores: make([]int, 0, p.Cores),
	}
	if n.tiles {
		n.tileSum = make([]float64, (p.Cores+1)/2)
	}
	// A mix code holds two bits per job, so 4^HyperThreads entries cover
	// every core running one job per lane, and a code never needs more
	// than 2*(HyperThreads+1) <= 10 bits.
	n.mixes = make([]mix, 1<<(2*n.HyperThreads()))
	for l := 0; l < lanes; l++ {
		n.core[l] = l % p.Cores
	}
	return n
}

// LaneCore returns the physical core hosting a lane.
func (n *Node) LaneCore(lane int) int { return n.core[lane] }

// HyperThreads returns the maximum number of lanes sharing one core.
func (n *Node) HyperThreads() int {
	return (n.Lanes + n.p.Cores - 1) / n.p.Cores
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
//	rate = Freq * BaseIPC(class) * issueShare(core) * tileShare(tile) * S(load)^Sens(class)
//
// where issueShare divides a core's issue slots among its hyper-threads in
// proportion to their demands, load is the sum over cores of the
// (issue-share-weighted, capped) bandwidth demands of their jobs, and
// tileShare (1 unless the tile level is on) divides a tile's L2 likewise.
//
// A core's share and load contribution depend only on its jobs' classes in
// job order — its mix — so one pass over the jobs encodes each core's mix as
// a code of two bits per job (digit class+1), and the node's mix table gives
// the share and contribution of that code, computed once on first sight. A
// core with more jobs than the table covers (an mpi helper computing on its
// driver's lane) keeps a code of one digit more, lists its later classes in
// the same pass, and is priced directly from both, so a refresh stays one
// pass over the jobs however many cores overflow. The load sums the
// contributions in the cores' first-appearance order, the per-class
// slowdowns come from a cache keyed by the load's bits, and a last pass sets
// the rates. Every cached value is the float the direct computation gives,
// so the rates are bit-identical to it. A refresh allocates nothing unless a
// core carries more than 8 jobs, or more than ever before.
func (n *Node) Rates(jobs []*vtime.ActiveJob) {
	coreOf, code, cores := n.core, n.code, n.cores[:0]
	limit := uint32(len(n.mixes))
	for _, j := range jobs {
		core := coreOf[j.Lane]
		x := code[core]
		if x == 0 {
			cores = append(cores, core)
		}
		// A code at or past the limit has one digit more than the table
		// covers and stops growing. A class out of range panics in the rate
		// pass, which indexes by it.
		if x < limit {
			code[core] = x<<2 | uint32(j.Class+1)
		} else {
			n.spillClass(core, Class(j.Class))
		}
	}
	n.cores = cores
	// Node-shared load: each core's contribution, summed in
	// first-appearance order: the float sum must not depend on anything but
	// the job list, or the last place moves between runs.
	var load float64
	share, mixes := n.share, n.mixes
	var buf [8]Class
	for _, core := range cores {
		x := code[core]
		code[core] = 0
		var m mix
		switch {
		case x >= limit:
			m = n.mixOf(n.classesOf(buf[:0], x, core))
		case mixes[x].share == 0:
			m = n.mixOf(n.classesOf(buf[:0], x, core))
			mixes[x] = m
		default:
			m = mixes[x]
		}
		share[core] = m.share
		load += m.bw
		if n.tiles {
			n.tileSum[core/2] = 0
		}
	}
	slow := n.slow(load)
	if n.tiles {
		for _, j := range jobs {
			core := coreOf[j.Lane]
			n.tileSum[core/2] += n.p.TileDemand[j.Class] * share[core]
		}
	}
	for _, j := range jobs {
		c := j.Class
		core := coreOf[j.Lane]
		tileShare := 1.0
		if n.tiles {
			if tot := n.tileSum[core/2]; !(tot <= 1) {
				tileShare = 1 / tot
			}
		}
		j.Rate = n.p.Freq * (n.p.BaseIPC[c] * share[core] * tileShare * slow[c])
	}
}

// spillClass lists the class of a job its core's code no longer holds.
func (n *Node) spillClass(core int, c Class) {
	if n.spill == nil {
		n.spill = make([][]Class, n.p.Cores)
	}
	n.spill[core] = append(n.spill[core], c)
}

// classesOf returns a core's classes in job order, in the storage of buf,
// which must be empty: those its code x holds, first job in the top digit,
// then any it spilled, which it forgets.
func (n *Node) classesOf(buf []Class, x uint32, core int) []Class {
	for ; x != 0; x >>= 2 {
		buf = append(buf, Class(x&3)-1)
	}
	slices.Reverse(buf)
	if n.spill != nil {
		buf = append(buf, n.spill[core]...)
		n.spill[core] = n.spill[core][:0]
	}
	return buf
}

// mixOf prices a core from its jobs' classes in job order. Proportional
// issue sharing: when the demands on a core exceed its slots, thread i
// receives demand_i/total slots; its speed relative to running alone is
// therefore 1/total, identical for all threads on the core. Two
// compute-intensive threads (demand 1 each) halve; a compute-intensive
// thread paired with a memory-bound one (demand 0.4) only drops to 1/1.4.
// The core's bandwidth demand is reduced by the same share (a half-speed
// thread generates half the traffic) and capped at one fully-streaming
// core.
func (n *Node) mixOf(classes []Class) mix {
	var issue float64
	for _, c := range classes {
		issue += n.p.IssueDemand[c]
	}
	share := 1.0
	if !(issue <= 1) {
		share = 1 / issue
	}
	var bw float64
	for _, c := range classes {
		bw += n.p.BWDemand[c] * share
	}
	return mix{share, math.Min(bw, 1)}
}

// slow returns S(load)^Sens(class) for every class, evaluating the curve
// only when the load's slot in the cache holds another load.
func (n *Node) slow(load float64) [numClasses]float64 {
	bits := math.Float64bits(load)
	e := &n.loads[(bits*0x9e3779b97f4a7c15)>>(64-loadCacheBits)]
	if e.bits != bits || e.slow[0] == 0 {
		n.slowdowns++
		s := n.p.Slowdown(load)
		e.bits = bits
		for c := range e.slow {
			e.slow[c] = math.Pow(s, n.p.Sens[c])
		}
	}
	return e.slow
}

// effBW returns the effective per-rank transfer bandwidth given commLanes
// lanes communicating concurrently.
func (n *Node) effBW(commLanes int) float64 {
	bw := n.p.NodeBandwidth / float64(commLanes)
	if n.p.EndpointBandwidth > 0 && bw > n.p.EndpointBandwidth {
		bw = n.p.EndpointBandwidth
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
	return n.p.CommLatency*float64(k-1) + bytesPerRank/n.effBW(commLanes)
}
