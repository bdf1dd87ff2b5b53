package handlerbody

// Handler-rooted helpers: functions that lead with the handler parameter
// pair (http.ResponseWriter, *http.Request) but carry extra arguments or
// return values — the shape of a cluster router's proxy and membership
// helpers. A handler hands them the live exchange, so their bodies run on
// the same net/http service goroutine and get the same scrutiny, including
// interprocedurally.

import (
	"net/http"

	"repro/internal/mpi"
)

// readPeer is membership-decoder shaped: extra result. Direct
// simulated-runtime calls in it are flagged.
func (s *server) readPeer(w http.ResponseWriter, r *http.Request) string {
	mpi.Alltoallv(s.ctx, s.c, 1, nil, 0) // want "calls internal/mpi inside an HTTP handler"
	return r.RemoteAddr
}

// relayTo is proxy-relay shaped: extra arguments. It reaches the simulated
// runtime through a helper chain, so the interprocedural pass reports the
// helper call with its path.
func (s *server) relayTo(w http.ResponseWriter, r *http.Request, addr string, attempt int) {
	_ = s.refill() // want "handlerbody.server.refill → handlerbody.server.drainOne → vtime.Queue.Pop"
	w.WriteHeader(http.StatusBadGateway)
}

// thinRelay is the sanctioned helper shape: pure exchange plumbing.
func thinRelay(w http.ResponseWriter, r *http.Request, code int) {
	w.WriteHeader(code)
}

// swapped does not lead with the handler pair; it is not handler-rooted
// and simulated-runtime calls in it are some other caller's business.
func (s *server) swapped(r *http.Request, w http.ResponseWriter) {
	mpi.Alltoallv(s.ctx, s.c, 1, nil, 0)
}
