package core

import (
	"fmt"

	"repro/internal/fftx"
	"repro/internal/knl"
)

// SensitivityRow records the headline result (the task version's gain over
// the original at one configuration) under one node-model perturbation.
type SensitivityRow struct {
	Name     string
	Original float64
	Task     float64
	Gain     float64
	XYShift  float64 // main-phase IPC, task minus original
}

// SensitivityResult is the model-robustness study: the paper's conclusion
// (the de-synchronized task version wins) should survive reasonable
// perturbations of the calibration constants.
type SensitivityResult struct {
	Ranks int
	Rows  []SensitivityRow
}

// Sensitivity re-runs the original-vs-task comparison at the largest
// non-hyper-threaded configuration under perturbed node models: work
// variance off/doubled, endpoint bandwidth halved/doubled, contention
// coefficient ±50 %, node bandwidth halved, communication latency x4 and
// the tile-L2 sharing level switched on.
func (s *Suite) Sensitivity() (*SensitivityResult, error) {
	variants := []struct {
		name string
		mod  func(p *knl.Params)
	}{
		{"calibrated model", func(p *knl.Params) {}},
		{"no work variance", func(p *knl.Params) { p.Jitter = 0 }},
		{"work variance x2", func(p *knl.Params) { p.Jitter *= 2 }},
		{"endpoint bandwidth /2", func(p *knl.Params) { p.EndpointBandwidth /= 2 }},
		{"endpoint bandwidth x2", func(p *knl.Params) { p.EndpointBandwidth *= 2 }},
		{"contention -50%", func(p *knl.Params) { p.ContA *= 0.5 }},
		{"contention +50%", func(p *knl.Params) { p.ContA *= 1.5 }},
		{"node bandwidth /2", func(p *knl.Params) { p.NodeBandwidth /= 2 }},
		{"comm latency x4", func(p *knl.Params) { p.CommLatency *= 4 }},
		{"tile L2 sharing on", func(p *knl.Params) {
			p.TileDemand[knl.ClassMem] = 0.45
			p.TileDemand[knl.ClassStream] = 0.55
			p.TileDemand[knl.ClassVector] = 0.60
		}},
	}
	out := &SensitivityResult{Ranks: s.noHTRanks()}
	for _, v := range variants {
		params := knl.DefaultParams()
		v.mod(&params)
		ro, rt, err := s.pair(func(c *fftx.Config) { c.Params = &params })
		if err != nil {
			return nil, fmt.Errorf("core: sensitivity %s: %w", v.name, err)
		}
		out.Rows = append(out.Rows, SensitivityRow{
			Name:     v.name,
			Original: ro.Runtime,
			Task:     rt.Runtime,
			Gain:     gain(ro.Runtime, rt.Runtime),
			XYShift:  mainPhaseIPC(rt) - mainPhaseIPC(ro),
		})
	}
	return out, nil
}

// BandSweepRow is one band-count measurement.
type BandSweepRow struct {
	NB       int
	Original float64
	Task     float64
	Gain     float64
}

// BandSweepResult shows how the task version's advantage depends on the
// computational load (Section IV: "the second optimization is especially
// targeting scenarios with high computational load").
type BandSweepResult struct {
	Ranks int
	Rows  []BandSweepRow
}

// BandSweep measures the original-vs-task gain at the largest
// non-hyper-threaded configuration for NB/8, NB/4, NB/2, NB and 2·NB bands
// (16 … 256 at the paper's workload), skipping counts the task groups do not
// divide.
func (s *Suite) BandSweep() (*BandSweepResult, error) {
	out := &BandSweepResult{Ranks: s.noHTRanks()}
	for _, nb := range []int{s.NB / 8, s.NB / 4, s.NB / 2, s.NB, 2 * s.NB} {
		if nb == 0 || nb%s.NTG != 0 {
			continue
		}
		ro, rt, err := s.pair(func(c *fftx.Config) { c.NB = nb })
		if err != nil {
			return nil, fmt.Errorf("core: bandsweep nb=%d: %w", nb, err)
		}
		out.Rows = append(out.Rows, BandSweepRow{
			NB: nb, Original: ro.Runtime, Task: rt.Runtime,
			Gain: gain(ro.Runtime, rt.Runtime),
		})
	}
	return out, nil
}
