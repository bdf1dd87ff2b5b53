package knl

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/vtime"
)

// ratesMapReference is the map-based Rates the scratch-slice version
// replaced, kept as the reference it must match bit for bit: per-core sums
// in job order, each core's bandwidth added to the load at its first job.
func ratesMapReference(n *Node, jobs []*vtime.ActiveJob) {
	issueSum := make(map[int]float64)
	for _, j := range jobs {
		c := Class(j.Class)
		issueSum[n.core[j.Lane]] += n.p.IssueDemand[c]
	}
	share := func(j *vtime.ActiveJob) float64 {
		tot := issueSum[n.core[j.Lane]]
		if tot <= 1 {
			return 1
		}
		return 1 / tot
	}
	var load float64
	coreBW := make(map[int]float64)
	for _, j := range jobs {
		c := Class(j.Class)
		coreBW[n.core[j.Lane]] += n.p.BWDemand[c] * share(j)
	}
	for _, j := range jobs {
		core := n.core[j.Lane]
		if bw, ok := coreBW[core]; ok {
			load += math.Min(bw, 1)
			delete(coreBW, core)
		}
	}
	var tileSum map[int]float64
	if n.p.TileDemand != ([numClasses]float64{}) {
		tileSum = make(map[int]float64)
		for _, j := range jobs {
			c := Class(j.Class)
			tileSum[n.core[j.Lane]/2] += n.p.TileDemand[c] * share(j)
		}
	}
	tileShare := func(j *vtime.ActiveJob) float64 {
		if tileSum == nil {
			return 1
		}
		tot := tileSum[n.core[j.Lane]/2]
		if tot <= 1 {
			return 1
		}
		return 1 / tot
	}
	s := n.p.Slowdown(load)
	for _, j := range jobs {
		c := Class(j.Class)
		ipc := n.p.BaseIPC[c] * share(j) * tileShare(j) * math.Pow(s, n.p.Sens[c])
		j.Rate = n.p.Freq * ipc
	}
}

// randomJobs draws a job set over a random subset of the node's lanes, in
// random order, with random classes.
func randomJobs(rng *rand.Rand, n *Node) []*vtime.ActiveJob {
	lanes := rng.Perm(n.Lanes)[:1+rng.Intn(n.Lanes)]
	jobs := make([]*vtime.ActiveJob, len(lanes))
	for i, l := range lanes {
		jobs[i] = &vtime.ActiveJob{Job: vtime.Job{Work: 1, Class: rng.Intn(int(numClasses)), Lane: l}}
	}
	return jobs
}

// randomSharedJobs draws a job set whose lanes repeat: up to three jobs per
// lane of a random subset of lanes, each on a lane drawn with replacement,
// so a lane often runs 2 or 3 jobs and a core can carry more jobs than the
// node's mix table covers, as when an mpi helper computes on its driver's
// lane.
func randomSharedJobs(rng *rand.Rand, n *Node) []*vtime.ActiveJob {
	lanes := rng.Perm(n.Lanes)[:1+rng.Intn(n.Lanes)]
	jobs := make([]*vtime.ActiveJob, 1+rng.Intn(3*len(lanes)))
	for i := range jobs {
		jobs[i] = &vtime.ActiveJob{Job: vtime.Job{Work: 1, Class: rng.Intn(int(numClasses)), Lane: lanes[rng.Intn(len(lanes))]}}
	}
	return jobs
}

// maxJobsPerCore is the most jobs any one core of the node carries.
func maxJobsPerCore(n *Node, jobs []*vtime.ActiveJob) int {
	per := make(map[int]int)
	most := 0
	for _, j := range jobs {
		c := n.core[j.Lane]
		per[c]++
		most = max(most, per[c])
	}
	return most
}

// matchesReference reports the first job whose Rates rate differs in any bit
// from the map-based reference's, as an error message, or "" if none does.
func matchesReference(n *Node, jobs []*vtime.ActiveJob) string {
	ratesMapReference(n, jobs)
	want := make([]uint64, len(jobs))
	for i, j := range jobs {
		want[i] = math.Float64bits(j.Rate)
		j.Rate = 0
	}
	n.Rates(jobs)
	for i, j := range jobs {
		if got := math.Float64bits(j.Rate); got != want[i] {
			return fmt.Sprintf("job %d (lane %d, class %d) rate %016x, reference %016x", i, j.Lane, j.Class, got, want[i])
		}
	}
	return ""
}

// Over seeded random job sets on nodes with 1 to 4 lanes per core, with and
// without the tile level, Rates gives exactly the rates of the map-based
// reference. Each node is reused across job sets, so stale scratch, a stale
// mix table entry, a stale spilled class or a stale load cache slot would
// show. Half the sets put 2 or 3 jobs on one lane, and some of them put more
// jobs on a core than the mix table covers, and some two more than it
// covers, which the test requires to happen, so the directly priced path and
// its spilled classes are pinned too.
func TestRatesMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tile := range []bool{false, true} {
		p := DefaultParams()
		p.Cores = 7 // odd: the last tile has one core
		if tile {
			p.TileDemand = [numClasses]float64{0.3, 0.6, 0.9}
		}
		for perCore := 1; perCore <= 4; perCore++ {
			n := NewNode(p, perCore*p.Cores)
			overflowed, spilled := 0, 0
			for set := 0; set < 400; set++ {
				jobs := randomJobs(rng, n)
				if set%2 == 1 {
					jobs = randomSharedJobs(rng, n)
				}
				if most := maxJobsPerCore(n, jobs); most > n.HyperThreads()+1 {
					spilled++
				} else if most > n.HyperThreads() {
					overflowed++
				}
				if msg := matchesReference(n, jobs); msg != "" {
					t.Fatalf("tile %v, %d lanes/core, set %d: %s", tile, perCore, set, msg)
				}
			}
			if overflowed == 0 || spilled == 0 {
				t.Errorf("tile %v, %d lanes/core: %d job sets put one job more on a core than the mix table covers and %d more than one, want some of each", tile, perCore, overflowed, spilled)
			}
		}
	}
}

// FuzzRatesMatchesReference differentially fuzzes Rates against the
// map-based reference: random lanes with repeats and random classes on a
// node of 1 to 4 lanes per core, the tile level on or off, and the issue,
// bandwidth and tile demands each scaled by a factor in [0.5, 1.5]. Each
// input rates the whole job set and then its first half on one node, so a
// stale scratch or cache entry from the first call would show in the second.
func FuzzRatesMatchesReference(f *testing.F) {
	f.Add(uint8(0), false, []byte{128, 128, 128}, []byte{0, 2, 1, 1, 2, 0})
	f.Add(uint8(1), true, []byte{0, 255, 64, 200, 10, 90, 30, 250, 128}, []byte{3, 2, 3, 2, 10, 0, 17, 1, 3, 1})
	f.Add(uint8(3), true, []byte{255}, []byte{0, 0, 0, 1, 0, 2, 7, 2, 14, 2, 21, 1})
	f.Fuzz(func(t *testing.T, perCore uint8, tile bool, demand, raw []byte) {
		p := DefaultParams()
		p.Cores = 7
		if tile {
			p.TileDemand = [numClasses]float64{0.3, 0.6, 0.9}
		}
		k := 0
		for _, d := range []*[numClasses]float64{&p.IssueDemand, &p.BWDemand, &p.TileDemand} {
			for c := range d {
				if k < len(demand) {
					d[c] *= 0.5 + float64(demand[k])/255
				}
				k++
			}
		}
		n := NewNode(p, (1+int(perCore)%4)*p.Cores)
		var jobs []*vtime.ActiveJob
		for i := 0; i+1 < len(raw); i += 2 {
			jobs = append(jobs, &vtime.ActiveJob{Job: vtime.Job{Work: 1, Lane: int(raw[i]) % n.Lanes, Class: int(raw[i+1]) % int(numClasses)}})
		}
		if len(jobs) == 0 {
			return
		}
		for _, set := range [][]*vtime.ActiveJob{jobs, jobs[:(len(jobs)+1)/2]} {
			if msg := matchesReference(n, set); msg != "" {
				t.Fatalf("%d jobs: %s", len(set), msg)
			}
		}
	})
}

// Job sets that differ but give the same node load evaluate the contention
// curve once: the first set evaluates it, and every later set with the same
// load reads the cached slowdowns. The same classes on other cores, and the
// same multiset of classes in another order when the partial sums are exact,
// give the same load; another load evaluates the curve again.
func TestRatesReuseLoad(t *testing.T) {
	n := NewNode(DefaultParams(), 68)
	onLanes := func(first int, classes ...Class) []*vtime.ActiveJob {
		jobs := make([]*vtime.ActiveJob, len(classes))
		for i, c := range classes {
			jobs[i] = &vtime.ActiveJob{Job: vtime.Job{Work: 1, Class: int(c), Lane: first + i}}
		}
		return jobs
	}
	sameLoad := [][]*vtime.ActiveJob{
		onLanes(0, ClassVector, ClassMem, ClassMem),
		onLanes(10, ClassVector, ClassMem, ClassMem),
		onLanes(20, ClassMem, ClassVector, ClassMem),
		onLanes(30, ClassMem, ClassMem, ClassVector),
	}
	for i, jobs := range sameLoad {
		if msg := matchesReference(n, jobs); msg != "" {
			t.Fatalf("set %d: %s", i, msg)
		}
	}
	if n.slowdowns != 1 {
		t.Errorf("%d job sets with one load evaluated the slowdown %d times, want 1", len(sameLoad), n.slowdowns)
	}
	if msg := matchesReference(n, onLanes(0, ClassVector, ClassStream)); msg != "" {
		t.Fatal(msg)
	}
	if n.slowdowns != 2 {
		t.Errorf("a new load: %d slowdown evaluations in all, want 2", n.slowdowns)
	}
}

// After its first call Rates allocates nothing, with the tile level on or
// off, and with cores that carry more jobs than the mix table covers: the
// simulator calls it at every job start and finish.
func TestRatesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned in normal builds only")
	}
	for _, tile := range []bool{false, true} {
		for _, overflow := range []bool{false, true} {
			p := DefaultParams()
			if tile {
				p.TileDemand = [numClasses]float64{0.3, 0.6, 0.9}
			}
			n := NewNode(p, 2*p.Cores)
			jobs := randomJobs(rand.New(rand.NewSource(2)), n)
			if overflow {
				// Four more jobs on each of ten cores: each carries 4 to
				// 6 jobs, so it spills past the table's two.
				for lane := 0; lane < 10; lane++ {
					for k := 0; k < 4; k++ {
						jobs = append(jobs, &vtime.ActiveJob{Job: vtime.Job{Work: 1, Class: k % int(numClasses), Lane: lane}})
					}
				}
			}
			n.Rates(jobs)
			if a := testing.AllocsPerRun(100, func() { n.Rates(jobs) }); a != 0 {
				t.Errorf("tile %v, overflow %v: Rates allocates %v objects per call, want 0", tile, overflow, a)
			}
		}
	}
}
