package fftx

import (
	"fmt"
	"sync"

	"repro/internal/knl"
)

// EngineAuto: the cost-model-driven engine selector. The paper's central
// observation is that no single scheduling wins everywhere — the static
// task-group baseline, the per-step tasks and the per-iteration tasks trade
// communication overlap against phase de-synchronization differently as the
// (grid, ranks, NTG, threads) point moves. The selector makes that trade
// explicit: it replays the configured workload shape through every
// applicable engine in ModeCost (no band data, just the calibrated knl
// instruction and communication model) and picks the one with the smallest
// simulated runtime.

// autoKey identifies one workload shape for the selection cache. It covers
// exactly the inputs the ModeCost probes depend on: the problem geometry,
// the process/thread layout, the scheduling knobs and the node model (by
// value — knl.Params is a plain scalar struct).
type autoKey struct {
	ecut, alat    float64
	nb            int
	ranks, ntg    int
	stepWorkers   int
	nestedLoops   bool
	nestedGrainXY int
	nestedGrainZ  int
	gamma         bool
	params        knl.Params
}

var autoCache = struct {
	sync.Mutex
	m map[autoKey]Engine
}{m: map[autoKey]Engine{}}

// SelectEngine resolves EngineAuto for the given configuration: it runs
// every applicable concrete engine in ModeCost on the same workload shape
// and returns the one with the smallest simulated runtime. Candidates the
// configuration cannot run (gamma mode restrictions, lane budgets) are
// skipped; ties pick the earliest engine in declaration order. Results are
// cached per workload shape, so repeated runs (the miniapp's iterations, a
// server's request stream) pay for the probes once.
func SelectEngine(cfg Config) (Engine, error) {
	return selectEngine(cfg.withDefaults())
}

// selectEngine is SelectEngine for a config that already has its defaults
// applied (the form Run holds when it resolves EngineAuto).
func selectEngine(cfg Config) (Engine, error) {
	key := autoKey{
		ecut: cfg.Ecut, alat: cfg.Alat,
		nb:    cfg.NB,
		ranks: cfg.Ranks, ntg: cfg.NTG,
		stepWorkers:   cfg.StepWorkers,
		nestedLoops:   cfg.NestedLoops,
		nestedGrainXY: cfg.NestedGrainXY,
		nestedGrainZ:  cfg.NestedGrainZ,
		gamma:         cfg.Gamma,
		params:        *cfg.Params,
	}
	autoCache.Lock()
	cached, ok := autoCache.m[key]
	autoCache.Unlock()
	if ok {
		return cached, nil
	}

	best, err := probeEngines(cfg)
	if err != nil {
		return 0, err
	}
	autoCache.Lock()
	autoCache.m[key] = best
	autoCache.Unlock()
	return best, nil
}

// probeEngines runs the ModeCost probes and returns the fastest applicable
// engine. The probes use a fixed seed, so the choice depends only on the
// workload shape, never on the caller's run noise.
func probeEngines(cfg Config) (Engine, error) {
	probe := cfg
	probe.Mode = ModeCost
	probe.Seed = 0
	probe.Strict = false
	probe.UnitPotential = false

	var (
		best     Engine
		bestTime float64
		found    bool
		firstErr error
	)
	// Every row of the policy table is a candidate, probed in table order;
	// ties in simulated runtime keep the earliest, so selection is
	// deterministic.
	for i := range policies {
		e := Engine(i)
		pc := probe
		pc.Engine = e
		if err := pc.validate(); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		res, err := runEngine(pc)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if !found || res.Runtime < bestTime {
			best, bestTime, found = e, res.Runtime, true
		}
	}
	if !found {
		if firstErr == nil {
			firstErr = fmt.Errorf("fftx: auto selection found no applicable engine")
		}
		return 0, fmt.Errorf("fftx: auto engine selection: %w", firstErr)
	}
	return best, nil
}

// ParseEngine maps an engine name (the String form: "original",
// "task-steps", "task-iter", "task-combined", "dataflow", "auto") to the
// Engine value.
func ParseEngine(name string) (Engine, error) {
	for e := EngineOriginal; e <= EngineAuto; e++ {
		if e.String() == name {
			return e, nil
		}
	}
	return 0, fmt.Errorf("fftx: unknown engine %q", name)
}
