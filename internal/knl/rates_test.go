package knl

import (
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
		issueSum[n.core[j.Lane]] += n.P.IssueDemand[c]
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
		coreBW[n.core[j.Lane]] += n.P.BWDemand[c] * share(j)
	}
	for _, j := range jobs {
		core := n.core[j.Lane]
		if bw, ok := coreBW[core]; ok {
			load += math.Min(bw, 1)
			delete(coreBW, core)
		}
	}
	var tileSum map[int]float64
	if n.P.TileDemand != ([numClasses]float64{}) {
		tileSum = make(map[int]float64)
		for _, j := range jobs {
			c := Class(j.Class)
			tileSum[n.core[j.Lane]/2] += n.P.TileDemand[c] * share(j)
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
	s := n.P.Slowdown(load)
	for _, j := range jobs {
		c := Class(j.Class)
		ipc := n.P.BaseIPC[c] * share(j) * tileShare(j) * math.Pow(s, n.P.Sens[c])
		j.Rate = n.P.Freq * ipc
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

// Over seeded random job sets on nodes with 1 to 4 lanes per core, with and
// without the tile level, Rates gives exactly the rates of the map-based
// reference. Each node is reused across job sets, so stale scratch from an
// earlier call would show.
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
			for set := 0; set < 200; set++ {
				jobs := randomJobs(rng, n)
				ratesMapReference(n, jobs)
				want := make([]uint64, len(jobs))
				for i, j := range jobs {
					want[i] = math.Float64bits(j.Rate)
					j.Rate = 0
				}
				n.Rates(jobs)
				for i, j := range jobs {
					if got := math.Float64bits(j.Rate); got != want[i] {
						t.Fatalf("tile %v, %d lanes/core, set %d: job %d (lane %d, class %d) rate %016x, reference %016x",
							tile, perCore, set, i, j.Lane, j.Class, got, want[i])
					}
				}
			}
		}
	}
}

// After its first call Rates allocates nothing, with the tile level on or
// off: the simulator calls it at every job start and finish.
func TestRatesAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are pinned in normal builds only")
	}
	for _, tile := range []bool{false, true} {
		p := DefaultParams()
		if tile {
			p.TileDemand = [numClasses]float64{0.3, 0.6, 0.9}
		}
		n := NewNode(p, 2*p.Cores)
		jobs := randomJobs(rand.New(rand.NewSource(2)), n)
		n.Rates(jobs)
		if a := testing.AllocsPerRun(100, func() { n.Rates(jobs) }); a != 0 {
			t.Errorf("tile %v: Rates allocates %v objects per call, want 0", tile, a)
		}
	}
}
