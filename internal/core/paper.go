// Package core orchestrates the paper's experiments: it runs the FFTXlib
// engines over the configurations of each table and figure of
// "Performance Analysis and Optimization of the FFTXlib on the Intel
// Knights Landing Architecture" (Wagner et al., ICPP Workshops 2017) from
// one memoised table of runs, and renders each experiment as a markdown
// section next to the published values. The sections together are
// EXPERIMENTS.md.
package core

// PaperTable1 holds the published efficiency and scalability factors of the
// original version (Table I), per configuration 1x8 .. 16x8, in percent.
var PaperTable1 = PaperFactors{
	Configs:     []string{"1 x 8", "2 x 8", "4 x 8", "8 x 8", "16 x 8"},
	ParallelEff: []float64{95.75, 91.21, 92.70, 90.97, 86.15},
	LoadBalance: []float64{97.31, 95.04, 98.31, 98.18, 96.91},
	CommEff:     []float64{98.40, 95.97, 94.29, 92.66, 88.90},
	SyncEff:     []float64{99.56, 98.88, 98.09, 97.76, 95.81},
	TransferEff: []float64{98.83, 97.06, 96.13, 94.78, 92.78},
	CompScal:    []float64{100.00, 91.87, 78.09, 54.74, 27.32},
	IPCScal:     []float64{100.00, 92.78, 78.68, 56.28, 28.26},
	InstrScal:   []float64{100.00, 99.78, 99.62, 99.42, 98.88},
	GlobalEff:   []float64{95.75, 83.80, 72.39, 49.79, 23.54},
	AvgIPC:      []float64{1.1, 0, 0, 0.6, 0.3},
}

// PaperTable2 holds the published factors of the OmpSs per-iteration task
// version (Table II).
var PaperTable2 = PaperFactors{
	Configs:     []string{"1 x 8", "2 x 8", "4 x 8", "8 x 8", "16 x 8"},
	ParallelEff: []float64{99.13, 95.53, 91.67, 83.33, 70.47},
	LoadBalance: []float64{99.86, 98.25, 95.52, 91.81, 90.32},
	CommEff:     []float64{99.26, 97.23, 95.97, 90.77, 78.03},
	SyncEff:     []float64{100.00, 99.84, 99.85, 97.52, 92.17},
	TransferEff: []float64{99.26, 97.39, 96.11, 93.07, 84.66},
	CompScal:    []float64{100.00, 92.56, 81.16, 61.36, 37.29},
	IPCScal:     []float64{100.00, 94.04, 84.05, 66.14, 42.57},
	InstrScal:   []float64{100.00, 99.46, 98.55, 97.19, 91.18},
	GlobalEff:   []float64{99.13, 88.42, 74.40, 51.13, 26.28},
	AvgIPC:      []float64{0, 0, 0, 0, 0.5},
}

// PaperFactors is a published POP-factor table. AvgIPC holds Section V's
// average IPCs where the text gives one (zero elsewhere): the original's
// 1.1 / 0.6 / 0.3 at 1x8 / 8x8 / 16x8 and the task version's 0.5 under
// 2-way hyper-threading.
type PaperFactors struct {
	Configs     []string
	ParallelEff []float64
	LoadBalance []float64
	CommEff     []float64
	SyncEff     []float64
	TransferEff []float64
	CompScal    []float64
	IPCScal     []float64
	InstrScal   []float64
	GlobalEff   []float64
	AvgIPC      []float64
}

// Published qualitative anchors used in the experiment notes.
const (
	// PaperPhasePrepIPC .. PaperPhaseXYIPC are the Figure 3 phase IPCs of
	// the original version at 8x8.
	PaperPhasePrepIPC = 0.06
	PaperPhaseZIPC    = 0.52
	PaperPhaseXYIPC   = 0.77
	// PaperXYIPCOriginal/Task are the Figure 7 main-phase IPCs at 8x8.
	PaperXYIPCOriginal = 0.75
	PaperXYIPCTask     = 0.85
	// PaperGainLow/High bracket the runtime reduction of the task version
	// (Section V: "about 7-10 % faster").
	PaperGainLow  = 0.07
	PaperGainHigh = 0.10
	// PaperHTGainTask is the extra gain the task version draws from 2-way
	// hyper-threading (Section V: "about 3 %").
	PaperHTGainTask = 0.03
)
