package graph

import (
	"repro/internal/fft"
	"repro/internal/knl"
)

// Pipeline builds the per-band stage graph of the FFT phase. The miniapp's
// "forward" direction (reciprocal → real space) is the exp(+iGr) kernel,
// i.e. fft.Backward in this library's convention; the return leg applies
// fft.Forward with the 1/N scaling in g-extract.
//
// Stage names, classes and instruction models are part of the behavioural
// contract: the names key the deterministic work-variance draws and the
// trace phases every engine must reproduce identically.
func (k *Kernel) Pipeline(gamma bool) *Graph {
	if gamma {
		return k.gammaPipeline()
	}
	return &Graph{Stages: []Stage{
		{
			Name: "prep", Step: "fft-z-fw", Class: knl.ClassMem, Instr: k.InstrPrep,
			Body: func(s *State, p int) { s.ZBuf = k.PrepSticks(p, s.Coeffs) },
		},
		{
			Name: "fft-z", Step: "fft-z-fw", Class: knl.ClassStream, Instr: k.InstrFFTZ,
			Body:  func(s *State, p int) { k.FFTZ(p, s.ZBuf, fft.Backward) },
			Split: SplitSticks, LoopName: "cft_1z", Count: k.Layout.NSticksOf,
			Part: func(s *State, p, lo, hi int) { k.FFTZPart(s.ZBuf, fft.Backward, lo, hi) },
		},
		{
			Name: "z-split", Step: "fft-z-fw", Class: knl.ClassMem, Instr: k.InstrZSplit,
			Body: func(s *State, p int) { s.Chunks = k.ScatterSplit(p, s.ZBuf) },
		},
		{Name: "scatter", Step: "scatter-fw", Kind: Scatter, Bytes: k.BytesScatterFw, TagOff: 0},
		{
			Name: "xy-fill", Step: "fft-xy-fw", Class: knl.ClassMem, Instr: k.InstrXYFill,
			Body: func(s *State, p int) { s.Planes = k.PlanesFromScatter(p, s.Chunks) },
		},
		{
			Name: "fft-xy", Step: "fft-xy-fw", Class: knl.ClassVector, Instr: k.InstrFFTXY,
			Body:  func(s *State, p int) { k.FFTXY(p, s.Planes, fft.Backward) },
			Split: SplitPlanes, LoopName: "cft_2xy", Count: k.Layout.NPlanesOf,
			Part: func(s *State, p, lo, hi int) { k.FFTXYPart(s.Planes, fft.Backward, lo, hi) },
		},
		{
			Name: "vofr", Step: "vofr", Class: knl.ClassVector, Instr: k.InstrVOfR,
			Body: func(s *State, p int) { k.VOfR(p, s.Planes) },
		},
		{
			Name: "fft-xy", Step: "fft-xy-bw", Class: knl.ClassVector, Instr: k.InstrFFTXY,
			Body:  func(s *State, p int) { k.FFTXY(p, s.Planes, fft.Forward) },
			Split: SplitPlanes, LoopName: "cft_2xy", Count: k.Layout.NPlanesOf,
			Part: func(s *State, p, lo, hi int) { k.FFTXYPart(s.Planes, fft.Forward, lo, hi) },
		},
		{
			Name: "xy-extract", Step: "fft-xy-bw", Class: knl.ClassMem, Instr: k.InstrXYExtract,
			Body: func(s *State, p int) { s.Chunks = k.PlanesToScatter(p, s.Planes) },
		},
		{Name: "scatter", Step: "scatter-bw", Kind: Scatter, Bytes: k.BytesScatterBw, TagOff: 1},
		{
			Name: "z-fill", Step: "fft-z-bw", Class: knl.ClassMem, Instr: k.InstrZFill,
			Body: func(s *State, p int) { s.ZBuf = k.SticksFromScatter(p, s.Chunks) },
		},
		{
			Name: "fft-z", Step: "fft-z-bw", Class: knl.ClassStream, Instr: k.InstrFFTZ,
			Body:  func(s *State, p int) { k.FFTZ(p, s.ZBuf, fft.Forward) },
			Split: SplitSticks, LoopName: "cft_1z", Count: k.Layout.NSticksOf,
			Part: func(s *State, p, lo, hi int) { k.FFTZPart(s.ZBuf, fft.Forward, lo, hi) },
		},
		{
			Name: "g-extract", Step: "fft-z-bw", Class: knl.ClassMem, Instr: k.InstrUnpack,
			Body: func(s *State, p int) { s.Res = k.ExtractCoeffs(p, s.ZBuf) },
		},
	}}
}

// gammaScaled multiplies an instruction model by GammaFactor (two bands
// per FFT double the column-proportional costs; the plane-proportional
// fft-xy and vofr stages stay unscaled).
func gammaScaled(instr func(p int) float64) func(p int) float64 {
	return func(p int) float64 { return GammaFactor * instr(p) }
}

// gammaPipeline is the band-pair variant: the same stage names, steps and
// classes, with the doubled-column bodies and GammaFactor-scaled costs.
func (k *Kernel) gammaPipeline() *Graph {
	return &Graph{Gamma: true, Stages: []Stage{
		{
			Name: "prep", Step: "fft-z-fw", Class: knl.ClassMem, Instr: gammaScaled(k.InstrPrep),
			Body: func(s *State, p int) { s.ZBuf = k.PrepSticksGamma(p, s.Coeffs, s.Coeffs2) },
		},
		{
			Name: "fft-z", Step: "fft-z-fw", Class: knl.ClassStream, Instr: gammaScaled(k.InstrFFTZ),
			Body: func(s *State, p int) { k.FFTZGamma(p, s.ZBuf, fft.Backward) },
		},
		{
			Name: "z-split", Step: "fft-z-fw", Class: knl.ClassMem, Instr: gammaScaled(k.InstrZSplit),
			Body: func(s *State, p int) { s.Chunks = k.ScatterSplitGamma(p, s.ZBuf) },
		},
		{Name: "scatter", Step: "scatter-fw", Kind: Scatter, Bytes: k.BytesScatterFwGamma, TagOff: 0},
		{
			Name: "xy-fill", Step: "fft-xy-fw", Class: knl.ClassMem, Instr: gammaScaled(k.InstrXYFill),
			Body: func(s *State, p int) { s.Planes = k.PlanesFromScatterGamma(p, s.Chunks) },
		},
		{
			Name: "fft-xy", Step: "fft-xy-fw", Class: knl.ClassVector, Instr: k.InstrFFTXY,
			Body: func(s *State, p int) { k.FFTXY(p, s.Planes, fft.Backward) },
		},
		{
			Name: "vofr", Step: "vofr", Class: knl.ClassVector, Instr: k.InstrVOfR,
			Body: func(s *State, p int) { k.VOfR(p, s.Planes) },
		},
		{
			Name: "fft-xy", Step: "fft-xy-bw", Class: knl.ClassVector, Instr: k.InstrFFTXY,
			Body: func(s *State, p int) { k.FFTXY(p, s.Planes, fft.Forward) },
		},
		{
			Name: "xy-extract", Step: "fft-xy-bw", Class: knl.ClassMem, Instr: gammaScaled(k.InstrXYExtract),
			Body: func(s *State, p int) { s.Chunks = k.PlanesToScatterGamma(p, s.Planes) },
		},
		{Name: "scatter", Step: "scatter-bw", Kind: Scatter, Bytes: k.BytesScatterBwGamma, TagOff: 1},
		{
			Name: "z-fill", Step: "fft-z-bw", Class: knl.ClassMem, Instr: gammaScaled(k.InstrZFill),
			Body: func(s *State, p int) { s.ZBuf = k.SticksFromScatterGamma(p, s.Chunks) },
		},
		{
			Name: "fft-z", Step: "fft-z-bw", Class: knl.ClassStream, Instr: gammaScaled(k.InstrFFTZ),
			Body: func(s *State, p int) { k.FFTZGamma(p, s.ZBuf, fft.Forward) },
		},
		{
			Name: "g-extract", Step: "fft-z-bw", Class: knl.ClassMem, Instr: gammaScaled(k.InstrUnpack),
			Body: func(s *State, p int) { s.Res, s.Res2 = k.ExtractCoeffsGamma(p, s.ZBuf) },
		},
	}}
}
