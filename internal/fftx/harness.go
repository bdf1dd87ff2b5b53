package fftx

import (
	"fmt"

	"repro/internal/fftx/graph"
	"repro/internal/knl"
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/pw"
	"repro/internal/trace"
	"repro/internal/vtime"
)

// harness is the scaffolding of a run: the kernel, the simulated node, the
// virtual-time engine, the trace and the MPI world. The
// schedule executor adds the spawn/task structure of a policy row on top.
type harness struct {
	cfg Config
	k   *kernel
	eng *vtime.Engine
	tr  *trace.Trace
	w   *mpi.World
	// rts are the task runtimes built through newRankRuntime, tracked so
	// finish can sum their barrier-stall accounts into Result.TaskwaitSec.
	rts []*ompss.Runtime
}

// newHarness builds the run scaffolding for ranks MPI ranks of
// lanesPerRank hardware lanes each (see policy.layout).
func newHarness(cfg Config, ranks, lanesPerRank int) *harness {
	k := newKernel(cfg)
	lanes := ranks * lanesPerRank
	node := knl.NewNode(*cfg.Params, lanes)
	eng := vtime.NewEngine(node)
	tr := trace.New(lanes, cfg.Params.Freq)
	tr.Meta["engine"] = cfg.Engine.String()
	w := mpi.NewWorld(eng, node, tr, ranks, lanesPerRank)
	w.Strict = cfg.Strict
	return &harness{cfg: cfg, k: k, eng: eng, tr: tr, w: w}
}

// jobs is the FFT job count: one band per job, or one band pair in gamma
// mode.
func (h *harness) jobs() int {
	if h.cfg.Gamma {
		return h.cfg.NB / 2
	}
	return h.cfg.NB
}

// inputBands returns the initial band coefficients (gamma-aware).
func (h *harness) inputBands() [][]complex128 {
	if h.cfg.Gamma {
		return pw.WavefunctionBandsGamma(h.k.Sphere, h.cfg.NB)
	}
	return pw.WavefunctionBands(h.k.Sphere, h.cfg.NB)
}

// newRankRuntime builds the OmpSs runtime of one rank over workers lanes
// starting at firstLane — callers spawn the rank's main process right
// after, preserving the lane ordering.
func (h *harness) newRankRuntime(firstLane, workers int) *ompss.Runtime {
	workerLanes := make([]int, workers)
	for t := 0; t < workers; t++ {
		workerLanes[t] = firstLane + t
	}
	rt := ompss.New(h.eng, h.tr, workerLanes)
	rt.Strict = h.cfg.Strict
	h.rts = append(h.rts, rt)
	return rt
}

// groupComms registers the two communicator layers of the grouped
// topology for rank (p,g): the "neighboring" pack communicator over the
// T groups of position p and the "alternating" group communicator over
// the R positions of group g.
func (h *harness) groupComms(p, g int) (packComm, grpComm *mpi.Comm) {
	T := h.cfg.NTG
	packRanks := make([]int, T)
	for gg := 0; gg < T; gg++ {
		packRanks[gg] = p*T + gg
	}
	packComm = h.w.NewSubComm(fmt.Sprintf("pack%d", p), packRanks)
	grpRanks := make([]int, h.cfg.Ranks)
	for q := 0; q < h.cfg.Ranks; q++ {
		grpRanks[q] = q*T + g
	}
	grpComm = h.w.NewSubComm(fmt.Sprintf("grp%d", g), grpRanks)
	return packComm, grpComm
}

// finish runs the virtual-time engine and assembles the Result, gathering
// the transformed bands in ModeReal via collect.
func (h *harness) finish(collect func() [][]complex128) (*Result, error) {
	if err := h.eng.Run(); err != nil {
		return nil, fmt.Errorf("fftx: %s engine: %w", h.cfg.Engine, err)
	}
	res := &Result{
		Config:  h.cfg,
		Runtime: h.tr.Runtime(),
		Trace:   h.tr,
		Engine:  h.cfg.Engine,
		Sphere:  h.k.Sphere,
		Layout:  h.k.Layout,
	}
	for _, rt := range h.rts {
		res.TaskwaitSec += rt.TaskwaitSec
	}
	if h.cfg.Mode == ModeReal {
		res.Bands = collect()
	}
	return res, nil
}

// topology distributes the input bands over the ranks, moves a job's
// coefficients into its State (the pack phase) and back out (the unpack
// phase) on the walking lane's context, and gathers the transformed bands
// (ModeReal). The phases report whether they are done, as k.phase does.
type topology interface {
	pack(ctx *mpi.Ctx, r *rank, seq int, s *graph.State) bool
	unpack(ctx *mpi.Ctx, r *rank, seq int, s *graph.State) bool
	collect() [][]complex128
}

// --- grouped topology: P = R·T ranks, rank (p,g) = p·T+g holds chunk g of
// position p's local coefficients ---

type grouped struct {
	h *harness
	// chunkBounds[p] are the T+1 chunk boundaries of position p's locals.
	chunkBounds [][]int
	// in[rank][b] / out[rank][b] hold chunk g of band b's position-p
	// locals (ModeReal; nil in ModeCost).
	in, out [][][]complex128
}

// newGrouped computes the task-group chunking and, in ModeReal,
// distributes the input bands over the P ranks.
func (h *harness) newGrouped() *grouped {
	cfg := h.cfg
	R, T := cfg.Ranks, cfg.NTG
	gt := &grouped{h: h, chunkBounds: make([][]int, R)}
	for p := range gt.chunkBounds {
		gt.chunkBounds[p] = h.k.Layout.TaskChunks(p, T)
	}
	if cfg.Mode != ModeReal {
		return gt
	}
	P := R * T
	gt.in = make([][][]complex128, P)
	gt.out = make([][][]complex128, P)
	for r := 0; r < P; r++ {
		gt.in[r] = make([][]complex128, cfg.NB)
		gt.out[r] = make([][]complex128, cfg.NB)
	}
	for b, coeffs := range h.inputBands() {
		locals := h.k.Layout.Distribute(coeffs)
		for p := 0; p < R; p++ {
			bd := gt.chunkBounds[p]
			for g := 0; g < T; g++ {
				gt.in[p*T+g][b] = locals[p][bd[g]:bd[g+1]]
			}
		}
	}
	return gt
}

// packExchange redistributes iteration it's NTG bands' chunks among the
// groups over the pack communicator, so group g receives the chunks of job
// it·T+g into the state: the task-group pack Alltoallv. In gamma mode each
// chunk is the concatenation of the band pair's sub-chunks. In ModeCost
// there is no payload: the exchange charges the same volume and moves
// nothing. It reports whether the exchange is done (see mpi.Ctx).
func (gt *grouped) packExchange(ctx *mpi.Ctx, r *rank, it int, s *graph.State) bool {
	k, cfg := gt.h.k, gt.h.cfg
	p, T := r.p, cfg.NTG
	i := it * T
	bytes := k.BytesPack(p, r.g, T)
	if cfg.Gamma {
		bytes = graph.GammaFactor * bytes
	}
	var send [][]complex128
	if gt.in != nil && !ctx.Busy() {
		in := gt.in[r.id]
		send = make([][]complex128, T)
		for gg := range send {
			if cfg.Gamma {
				send[gg] = concat(in[2*(i+gg)], in[2*(i+gg)+1])
			} else {
				send[gg] = in[i+gg]
			}
		}
	}
	recv, done := ctx.Exchange(r.pack, 2*it, send, bytes)
	if done {
		s.Chunks = recv
	}
	return done
}

// pack assembles the job from the chunks the pack exchange received: the
// "pack" reassembly phase.
func (gt *grouped) pack(ctx *mpi.Ctx, r *rank, it int, s *graph.State) bool {
	k, cfg := gt.h.k, gt.h.cfg
	p := r.p
	bd := gt.chunkBounds[p]
	instr := k.InstrPack(p)
	if cfg.Gamma {
		instr = graph.GammaFactor * instr
	}
	return k.phase(ctx, s.Job, p, "pack", knl.ClassMem, instr, func() {
		s.Coeffs = make([]complex128, 0, k.Layout.NGOf[p])
		if cfg.Gamma {
			s.Coeffs2 = make([]complex128, 0, k.Layout.NGOf[p])
		}
		for gg, chunk := range s.Chunks {
			if cfg.Gamma {
				csz := bd[gg+1] - bd[gg]
				s.Coeffs = append(s.Coeffs, chunk[:csz]...)
				s.Coeffs2 = append(s.Coeffs2, chunk[csz:]...)
			} else {
				s.Coeffs = append(s.Coeffs, chunk...)
			}
		}
	})
}

// unpack splits the transformed job into each group's chunk, into the
// state: the "unpack" split phase.
func (gt *grouped) unpack(ctx *mpi.Ctx, r *rank, it int, s *graph.State) bool {
	k, cfg := gt.h.k, gt.h.cfg
	p, T := r.p, cfg.NTG
	bd := gt.chunkBounds[p]
	instr := k.InstrPack(p)
	if cfg.Gamma {
		instr = graph.GammaFactor * instr
	}
	return k.phase(ctx, s.Job, p, "unpack", knl.ClassMem, instr, func() {
		send := make([][]complex128, T)
		for gg := range send {
			if cfg.Gamma {
				send[gg] = concat(s.Res[bd[gg]:bd[gg+1]], s.Res2[bd[gg]:bd[gg+1]])
			} else {
				send[gg] = s.Res[bd[gg]:bd[gg+1]]
			}
		}
		s.Chunks = send
	})
}

// unpackExchange returns each group's chunk of the transformed job to its
// home rank: the mirrored pack Alltoallv. It reports whether the exchange
// is done (see mpi.Ctx).
func (gt *grouped) unpackExchange(ctx *mpi.Ctx, r *rank, it int, s *graph.State) bool {
	k, cfg := gt.h.k, gt.h.cfg
	p := r.p
	i := it * cfg.NTG
	bd := gt.chunkBounds[p]
	bytes := k.BytesUnpack(p)
	if cfg.Gamma {
		bytes = graph.GammaFactor * bytes
	}
	recv, done := ctx.Exchange(r.pack, 2*it+1, s.Chunks, bytes)
	if !done {
		return false
	}
	csz := bd[r.g+1] - bd[r.g]
	for gg, chunk := range recv {
		if cfg.Gamma {
			gt.out[r.id][2*(i+gg)] = chunk[:csz]
			gt.out[r.id][2*(i+gg)+1] = chunk[csz:]
		} else {
			gt.out[r.id][i+gg] = chunk
		}
	}
	return true
}

// concat returns a new slice holding a followed by b: a gamma band pair's
// chunks travel as one.
func concat(a, b []complex128) []complex128 {
	return append(append(make([]complex128, 0, len(a)+len(b)), a...), b...)
}

// collect concatenates each position's group chunks and gathers the full
// bands.
func (gt *grouped) collect() [][]complex128 {
	cfg, k := gt.h.cfg, gt.h.k
	R, T := cfg.Ranks, cfg.NTG
	bands := make([][]complex128, cfg.NB)
	for b := 0; b < cfg.NB; b++ {
		locals := make([][]complex128, R)
		for p := 0; p < R; p++ {
			loc := make([]complex128, 0, k.Layout.NGOf[p])
			for g := 0; g < T; g++ {
				loc = append(loc, gt.out[p*T+g][b]...)
			}
			locals[p] = loc
		}
		bands[b] = k.Layout.Collect(locals)
	}
	return bands
}

// --- flat topology: R ranks, rank p holds every band's full position-p
// local coefficients ---

type flat struct {
	h *harness
	// in[p][b] / out[p][b] hold band b's full position-p locals
	// (ModeReal; nil in ModeCost).
	in, out [][][]complex128
}

// newFlat distributes the input bands over the R ranks in ModeReal.
func (h *harness) newFlat() *flat {
	cfg := h.cfg
	ft := &flat{h: h}
	if cfg.Mode != ModeReal {
		return ft
	}
	R := cfg.Ranks
	ft.in = make([][][]complex128, R)
	ft.out = make([][][]complex128, R)
	for p := 0; p < R; p++ {
		ft.in[p] = make([][]complex128, cfg.NB)
		ft.out[p] = make([][]complex128, cfg.NB)
	}
	for b, coeffs := range h.inputBands() {
		locals := h.k.Layout.Distribute(coeffs)
		for p := 0; p < R; p++ {
			ft.in[p][b] = locals[p]
		}
	}
	return ft
}

// pack copies job b's local coefficients into the state — the flat
// topology's task-group pack degenerates to a local copy.
func (ft *flat) pack(ctx *mpi.Ctx, r *rank, b int, s *graph.State) bool {
	k, cfg, p := ft.h.k, ft.h.cfg, r.p
	if cfg.Gamma {
		return k.phase(ctx, b, p, "pack", knl.ClassMem, graph.GammaFactor*k.InstrPack(p), func() {
			s.Coeffs = append([]complex128(nil), ft.in[p][2*b]...)
			s.Coeffs2 = append([]complex128(nil), ft.in[p][2*b+1]...)
		})
	}
	return k.phase(ctx, b, p, "pack", knl.ClassMem, k.InstrPack(p), func() {
		s.Coeffs = append([]complex128(nil), ft.in[p][b]...)
	})
}

// unpack stores job b's transformed coefficients.
func (ft *flat) unpack(ctx *mpi.Ctx, r *rank, b int, s *graph.State) bool {
	k, cfg, p := ft.h.k, ft.h.cfg, r.p
	if cfg.Gamma {
		return k.phase(ctx, b, p, "unpack", knl.ClassMem, graph.GammaFactor*k.InstrPack(p), func() {
			ft.out[p][2*b] = s.Res
			ft.out[p][2*b+1] = s.Res2
		})
	}
	return k.phase(ctx, b, p, "unpack", knl.ClassMem, k.InstrPack(p), func() {
		ft.out[p][b] = s.Res
	})
}

// collect gathers the full bands from the per-rank locals.
func (ft *flat) collect() [][]complex128 {
	cfg, k := ft.h.cfg, ft.h.k
	bands := make([][]complex128, cfg.NB)
	for b := 0; b < cfg.NB; b++ {
		locals := make([][]complex128, cfg.Ranks)
		for p := 0; p < cfg.Ranks; p++ {
			locals[p] = ft.out[p][b]
		}
		bands[b] = k.Layout.Collect(locals)
	}
	return bands
}
