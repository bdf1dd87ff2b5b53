// Package handlerbody seeds violations of the handlerbody rule:
// simulated-runtime calls inside HTTP handler bodies, which run on net/http
// service goroutines outside the virtual-time engine.
package handlerbody

import (
	"net/http"

	"repro/internal/knl"
	"repro/internal/mpi"
	"repro/internal/ompss"
	"repro/internal/par"
	"repro/internal/vtime"
)

type server struct {
	ctx *mpi.Ctx
	c   *mpi.Comm
	rt  *ompss.Runtime
	p   *vtime.Proc
	q   *vtime.Queue[int]
}

// handler methods are detected by signature, however they are registered.
func (s *server) handleExchange(w http.ResponseWriter, r *http.Request) {
	mpi.Alltoallv(s.ctx, s.c, 1, nil, 0) // want "calls internal/mpi inside an HTTP handler"
}

func (s *server) handleCompute(w http.ResponseWriter, r *http.Request) {
	s.ctx.Compute("fft-z", knl.ClassStream, 100) // want "calls internal/mpi inside an HTTP handler"
	_, _ = s.q.Pop(s.p)                          // want "calls internal/vtime inside an HTTP handler"
}

// handler-shaped function literals (mux.HandleFunc style) count too.
func register(mux *http.ServeMux, s *server) {
	mux.HandleFunc("/task", func(w http.ResponseWriter, r *http.Request) {
		s.rt.Submit(s.p, "band", nil, 0, func(worker *ompss.Worker) {}) // want "calls internal/ompss inside an HTTP handler"
	})
}

// thinHandler is the sanctioned shape: decode, hand off to plain-host
// machinery, reply. Host-parallel numeric fan-out is fine — it never enters
// the simulated runtime.
func thinHandler(w http.ResponseWriter, r *http.Request) {
	out := make([]float64, 64)
	par.ParallelFor(len(out), 16, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i] = float64(i)
		}
	})
	w.WriteHeader(http.StatusOK)
}

// notAHandler has a different signature; simulated-runtime calls here are
// the enclosing program's business, not this rule's.
func notAHandler(s *server) {
	mpi.Alltoallv(s.ctx, s.c, 1, nil, 0)
}
