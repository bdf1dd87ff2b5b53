package fftx

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fftx/graph"
	"repro/internal/knl"
)

// The problem geometry is built once per shape and shared read-only by
// every run of the shape (graph.GeometryOf). Each test below runs a shape
// the process has not built before, so its first run is a cold build.

// alatSeq makes every coldAlat result distinct, under -count > 1 too.
var alatSeq atomic.Int64

// coldAlat returns a lattice parameter near alat that no earlier call
// returned: a shape keyed by it is not in the geometry cache yet.
func coldAlat(alat float64) float64 { return alat + 1e-6*float64(alatSeq.Add(1)) }

// TestGeometryBuiltOncePerShape counts graph.GeometryBuilds: the five
// engines, the auto selector's probes, the serial reference and a run
// under a different node model share one build on one shape; another rank
// count and the gamma geometry are one build each.
func TestGeometryBuiltOncePerShape(t *testing.T) {
	base := Config{Ecut: testEcut, Alat: coldAlat(testAlat), NB: 8, Ranks: 2, NTG: 2, Mode: ModeCost}
	run := func(cfg Config) *Result {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Engine, err)
		}
		return res
	}
	before := graph.GeometryBuilds()
	builds := func() int64 { return graph.GeometryBuilds() - before }

	sphere := run(base).Sphere
	for _, e := range []Engine{EngineOriginal, EngineTaskSteps, EngineTaskIter, EngineTaskCombined, EngineDataflow} {
		cfg := base
		cfg.Engine = e
		if res := run(cfg); res.Sphere != sphere {
			t.Errorf("%v: the run's sphere is not the shape's shared sphere", e)
		}
	}
	if _, err := SelectEngine(base); err != nil {
		t.Fatal(err)
	}
	Reference(base)
	params := knl.DefaultParams()
	params.InstrPerFlop *= 2
	slow := base
	slow.Params = &params
	run(slow)
	if got := builds(); got != 1 {
		t.Errorf("one shape: %d geometry builds, want 1", got)
	}

	ranks := base
	ranks.Ranks = 3
	run(ranks)
	if got := builds(); got != 2 {
		t.Errorf("after another rank count: %d geometry builds, want 2", got)
	}
	gamma := base
	gamma.Gamma = true
	run(gamma)
	if got := builds(); got != 3 {
		t.Errorf("after the gamma geometry: %d geometry builds, want 3", got)
	}
}

// TestWarmRunSkipsGeometry pins what the shared geometry saves: at the
// paper's 80 Ry and 20 bohr, a cost-mode run of a shape already built
// allocates at most a quarter of the bytes the cold run, which builds the
// sphere, the layout and the index maps, allocates.
func TestWarmRunSkipsGeometry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cfg := Config{Ecut: 80, Alat: coldAlat(20), NB: 4, Ranks: 5, NTG: 1, Engine: EngineOriginal, Mode: ModeCost}
	alloc := func() uint64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.TotalAlloc
	}
	bytesOf := func() uint64 {
		t.Helper()
		a := alloc()
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		return alloc() - a
	}
	built := graph.GeometryBuilds()
	cold := bytesOf()
	if n := graph.GeometryBuilds() - built; n != 1 {
		t.Fatalf("the cold run built %d geometries, want 1", n)
	}
	warm := bytesOf()
	t.Logf("cold run %d KiB, warm run %d KiB", cold>>10, warm>>10)
	if warm > cold/4 {
		t.Errorf("a warm run allocates %d B, more than a quarter of the cold run's %d B", warm, cold)
	}
}

// TestSharedGeometryConcurrentRuns runs engines at once on one shared
// shape, complex and gamma, in both modes, from a cold cache, so the
// concurrent misses, the V(r) tables and every stage body race on the
// shared geometry. Each result must equal its serial rerun bit for bit.
// Under -race (make race) this is the geometry's read-only contract.
func TestSharedGeometryConcurrentRuns(t *testing.T) {
	alat := coldAlat(testAlat)
	var cfgs []Config
	for _, mode := range []Mode{ModeReal, ModeCost} {
		for _, e := range []Engine{EngineOriginal, EngineTaskSteps, EngineTaskIter, EngineTaskCombined, EngineDataflow} {
			cfgs = append(cfgs, Config{Ecut: testEcut, Alat: alat, NB: 8, Ranks: 2, NTG: 2, Engine: e, Mode: mode})
		}
		for _, e := range []Engine{EngineOriginal, EngineTaskIter, EngineDataflow} {
			cfgs = append(cfgs, Config{Ecut: testEcut, Alat: alat, NB: 8, Ranks: 2, NTG: 2, Engine: e, Mode: mode, Gamma: true})
		}
	}
	concurrent := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	var start, done sync.WaitGroup
	start.Add(1)
	for i, cfg := range cfgs {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			concurrent[i], errs[i] = Run(cfg)
		}()
	}
	start.Done()
	done.Wait()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%v gamma=%v mode=%v: %v", cfg.Engine, cfg.Gamma, cfg.Mode, errs[i])
		}
		serial, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := digestOf("", concurrent[i]), digestOf("", serial); got != want {
			t.Errorf("%v gamma=%v mode=%v: concurrent run %+v, serial run %+v", cfg.Engine, cfg.Gamma, cfg.Mode, got, want)
		}
		if concurrent[i].Layout != serial.Layout {
			t.Errorf("%v gamma=%v: runs of one shape hold different layouts", cfg.Engine, cfg.Gamma)
		}
	}
}
