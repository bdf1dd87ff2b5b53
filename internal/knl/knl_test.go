package knl

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/vtime"
)

func mkJobs(n *Node, classes []Class) []*vtime.ActiveJob {
	jobs := make([]*vtime.ActiveJob, len(classes))
	for i, c := range classes {
		jobs[i] = &vtime.ActiveJob{Job: vtime.Job{Work: 1, Class: int(c), Lane: i}}
	}
	return jobs
}

func ipcOf(n *Node, j *vtime.ActiveJob) float64 { return j.Rate / n.P.Freq }

func TestSingleJobRunsAtNearBaseIPC(t *testing.T) {
	p := DefaultParams()
	n := NewNode(p, 68)
	jobs := mkJobs(n, []Class{ClassVector})
	n.Rates(jobs)
	got := ipcOf(n, jobs[0])
	// One lane: load = 1, S(1) ~ 0.998.
	if got > p.BaseIPC[ClassVector] || got < 0.99*p.BaseIPC[ClassVector] {
		t.Fatalf("single-job IPC = %v, base %v", got, p.BaseIPC[ClassVector])
	}
}

func TestContentionMonotoneInActiveLanes(t *testing.T) {
	p := DefaultParams()
	n := NewNode(p, 68)
	prev := math.Inf(1)
	for _, lanes := range []int{1, 8, 16, 32, 64} {
		classes := make([]Class, lanes)
		for i := range classes {
			classes[i] = ClassVector
		}
		jobs := mkJobs(n, classes)
		n.Rates(jobs)
		ipc := ipcOf(n, jobs[0])
		if ipc >= prev {
			t.Fatalf("IPC did not decrease with contention: %d lanes -> %v (prev %v)", lanes, ipc, prev)
		}
		prev = ipc
	}
}

// The calibration target: with all lanes synchronized in the main phase,
// the IPC ratio versus the 8-lane run must follow Table I's IPC scalability
// column within a few points: 16 lanes ~93 %, 32 ~79 %, 64 ~56 %,
// 128 (2x HT) ~28 %.
func TestIPCScalabilityMatchesTableI(t *testing.T) {
	p := DefaultParams()
	ipcAt := func(lanes int) float64 {
		n := NewNode(p, lanes)
		classes := make([]Class, lanes)
		for i := range classes {
			classes[i] = ClassVector
		}
		jobs := mkJobs(n, classes)
		n.Rates(jobs)
		return ipcOf(n, jobs[0])
	}
	ref := ipcAt(8)
	want := map[int]float64{16: 0.928, 32: 0.787, 64: 0.563, 128: 0.283}
	for lanes, w := range want {
		got := ipcAt(lanes) / ref
		if math.Abs(got-w) > 0.08 {
			t.Errorf("IPC scalability at %d lanes = %.3f, paper %.3f", lanes, got, w)
		}
	}
}

// Figure 3 anchor: at the synchronized 8x8 configuration (64 lanes), the
// phase IPCs should be near 0.06 / 0.52 / 0.77.
func TestPhaseIPCsMatchFigure3(t *testing.T) {
	p := DefaultParams()
	n := NewNode(p, 64)
	for _, tc := range []struct {
		class Class
		want  float64
		tol   float64
	}{
		{ClassMem, 0.06, 0.02},
		{ClassStream, 0.52, 0.08},
		{ClassVector, 0.77, 0.08},
	} {
		classes := make([]Class, 64)
		for i := range classes {
			classes[i] = tc.class
		}
		jobs := mkJobs(n, classes)
		n.Rates(jobs)
		got := ipcOf(n, jobs[0])
		if math.Abs(got-tc.want) > tc.tol {
			t.Errorf("class %v IPC at 64 synchronized lanes = %.3f, paper ~%.2f", tc.class, got, tc.want)
		}
	}
}

func TestHyperThreadingHalvesVectorPairs(t *testing.T) {
	p := DefaultParams()
	n := NewNode(p, 136) // 2-way HT on all 68 cores
	// Two vector jobs on the same core (lanes 0 and 68).
	jobs := []*vtime.ActiveJob{
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 0}},
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 68}},
	}
	n.Rates(jobs)
	paired := ipcOf(n, jobs[0])
	solo := mkJobs(n, []Class{ClassVector})
	n.Rates(solo)
	ratio := paired / ipcOf(n, solo[0])
	if math.Abs(ratio-0.5) > 0.03 {
		t.Fatalf("HT vector pair runs at %.3f of solo, want ~0.5", ratio)
	}
}

func TestHyperThreadingMixedNodeBeatsVectorNode(t *testing.T) {
	// At full 2-way hyper-threading, a node whose cores each pair a vector
	// thread with a memory thread places less load on the shared resource
	// than a node running vector threads everywhere, so the vector threads
	// run at higher IPC — the node-level mechanism behind the task
	// version's hyper-threading gain.
	p := DefaultParams()
	n := NewNode(p, 136)
	allVec := make([]Class, 136)
	for i := range allVec {
		allVec[i] = ClassVector
	}
	jv := mkJobs(n, allVec)
	n.Rates(jv)
	vecVec := ipcOf(n, jv[0])

	mixed := make([]Class, 136)
	for i := range mixed {
		if i < 68 {
			mixed[i] = ClassVector
		} else {
			mixed[i] = ClassMem // second hyper-thread of each core
		}
	}
	jm := mkJobs(n, mixed)
	n.Rates(jm)
	vecMix := ipcOf(n, jm[0])
	if vecMix <= vecVec {
		t.Fatalf("vector+mem node (%.3f) should beat all-vector node (%.3f)", vecMix, vecVec)
	}
}

// De-synchronization effect: a lane running the vector phase achieves higher
// IPC when the other lanes run the memory phase than when all lanes run the
// vector phase — the mechanism behind the OmpSs version's gain.
func TestDesyncRaisesVectorIPC(t *testing.T) {
	p := DefaultParams()
	n := NewNode(p, 64)
	allVec := make([]Class, 64)
	for i := range allVec {
		allVec[i] = ClassVector
	}
	jv := mkJobs(n, allVec)
	n.Rates(jv)
	syncIPC := ipcOf(n, jv[0])

	mixed := make([]Class, 64)
	for i := range mixed {
		if i%2 == 0 {
			mixed[i] = ClassVector
		} else {
			mixed[i] = ClassMem
		}
	}
	jm := mkJobs(n, mixed)
	n.Rates(jm)
	mixIPC := ipcOf(n, jm[0])
	if mixIPC <= syncIPC {
		t.Fatalf("de-synchronized vector IPC %.3f should exceed synchronized %.3f", mixIPC, syncIPC)
	}
	// The paper reports roughly 0.75 -> 0.85 for the main phase.
	if mixIPC/syncIPC < 1.05 {
		t.Fatalf("de-sync gain %.3f too small", mixIPC/syncIPC)
	}
}

func TestLaneCoreAssignment(t *testing.T) {
	p := DefaultParams()
	n := NewNode(p, 136)
	if n.LaneCore(0) != 0 || n.LaneCore(67) != 67 || n.LaneCore(68) != 0 {
		t.Fatalf("round-robin lane->core broken: %d %d %d",
			n.LaneCore(0), n.LaneCore(67), n.LaneCore(68))
	}
	if n.HyperThreads() != 2 {
		t.Fatalf("HyperThreads = %d, want 2", n.HyperThreads())
	}
}

func TestNewNodeRejectsTooManyLanes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for >4-way HT")
		}
	}()
	NewNode(DefaultParams(), 68*4+1)
}

func TestAlltoallTimeGrowsWithParticipants(t *testing.T) {
	n := NewNode(DefaultParams(), 64)
	prev := 0.0
	for _, k := range []int{2, 4, 8, 16, 32, 64} {
		d := n.AlltoallTime(k, 1<<20, 64)
		if d <= prev {
			t.Fatalf("Alltoall time not increasing at k=%d: %v <= %v", k, d, prev)
		}
		prev = d
	}
}

func TestAlltoallSingleRankFree(t *testing.T) {
	n := NewNode(DefaultParams(), 8)
	if d := n.AlltoallTime(1, 1<<30, 8); d != 0 {
		t.Fatalf("self-alltoall should be free, got %v", d)
	}
}

func TestCommTimesPositive(t *testing.T) {
	n := NewNode(DefaultParams(), 16)
	if n.AlltoallTime(8, 4096, 16) <= 0 || n.AlltoallTime(2, 0, 2) <= 0 {
		t.Fatal("collective times must be positive")
	}
}

// Property: rates are always positive and never exceed Freq*BaseIPC.
func TestPropertyRatesBounded(t *testing.T) {
	p := DefaultParams()
	f := func(classRaw []uint8) bool {
		if len(classRaw) == 0 {
			return true
		}
		if len(classRaw) > 272 {
			classRaw = classRaw[:272]
		}
		n := NewNode(p, len(classRaw))
		jobs := make([]*vtime.ActiveJob, len(classRaw))
		for i, c := range classRaw {
			jobs[i] = &vtime.ActiveJob{Job: vtime.Job{Work: 1, Class: int(c) % int(numClasses), Lane: i}}
		}
		n.Rates(jobs)
		for _, j := range jobs {
			base := p.BaseIPC[Class(j.Class)] * p.Freq
			if !(j.Rate > 0) || j.Rate > base*(1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Rates is a function of the job list: repeated calls on one job set give
// bit-identical rates. The node load is a float sum over cores, so summing
// them in map order would move the last place between calls.
func TestRatesBitIdenticalAcrossCalls(t *testing.T) {
	p := DefaultParams()
	n := NewNode(p, 2*p.Cores)
	classes := make([]Class, 2*p.Cores)
	for i := range classes {
		classes[i] = Class((i*i + i/3) % int(numClasses))
	}
	jobs := mkJobs(n, classes)
	n.Rates(jobs)
	want := make([]uint64, len(jobs))
	for i, j := range jobs {
		want[i] = math.Float64bits(j.Rate)
	}
	for call := 0; call < 50; call++ {
		n.Rates(jobs)
		for i, j := range jobs {
			if got := math.Float64bits(j.Rate); got != want[i] {
				t.Fatalf("call %d: job %d rate %016x, first call gave %016x", call, i, got, want[i])
			}
		}
	}
}

// Property: the slowdown curve is monotone non-increasing in load.
func TestPropertySlowdownMonotone(t *testing.T) {
	p := DefaultParams()
	f := func(a, b uint16) bool {
		x, y := float64(a)/100, float64(b)/100
		if x > y {
			x, y = y, x
		}
		return p.Slowdown(x) >= p.Slowdown(y)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTileSharingSlowsSameTilePairs(t *testing.T) {
	p := DefaultParams()
	p.TileDemand[ClassVector] = 0.6
	n := NewNode(p, 68)
	// Cores 0 and 1 share tile 0; cores 0 and 2 do not share a tile.
	sameTile := []*vtime.ActiveJob{
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 0}},
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 1}},
	}
	n.Rates(sameTile)
	same := ipcOf(n, sameTile[0])
	crossTile := []*vtime.ActiveJob{
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 0}},
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 2}},
	}
	n.Rates(crossTile)
	cross := ipcOf(n, crossTile[0])
	if same >= cross {
		t.Fatalf("same-tile pair IPC %.3f not below cross-tile %.3f", same, cross)
	}
	// With the calibrated default (zero demands) the tile level is off.
	p2 := DefaultParams()
	n2 := NewNode(p2, 68)
	st := []*vtime.ActiveJob{
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 0}},
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 1}},
	}
	n2.Rates(st)
	ct := []*vtime.ActiveJob{
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 0}},
		{Job: vtime.Job{Work: 1, Class: int(ClassVector), Lane: 2}},
	}
	n2.Rates(ct)
	if ipcOf(n2, st[0]) != ipcOf(n2, ct[0]) {
		t.Fatal("tile level active despite zero demands")
	}
}
