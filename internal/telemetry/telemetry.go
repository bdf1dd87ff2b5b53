// Package telemetry serves the live observability endpoints of a running
// simulation: /metrics (Prometheus text exposition of the default metrics
// registry), /debug/vars (expvar, including the registry mirrored as JSON)
// and /debug/pprof (the net/http/pprof profiling handlers). The CLIs mount
// it behind their -serve flag.
package telemetry

import (
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/metrics"
)

// Server is a running telemetry endpoint.
type Server struct {
	// URL is the server's base address, e.g. "http://127.0.0.1:8080".
	URL string
	ln  net.Listener
	srv *http.Server
}

// Mux returns a fresh ServeMux with the standard telemetry surface
// mounted: /metrics, /debug/vars, /debug/pprof/* and a plain-text index at
// /. Servers that carry their own endpoints beside the telemetry ones (the
// fftxd FFT service with /fft and its /debug/fftx/requests introspection
// page) build on this mux instead of running a second listener; extra
// index lines name the additional endpoints on the front page.
func Mux(reg *metrics.Registry, extraIndex ...string) *http.ServeMux {
	metrics.PublishExpvar("fftx", reg)

	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(reg))
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprintf(w, "fftx telemetry\n\n/metrics\n/debug/vars\n/debug/pprof/\n")
		for _, line := range extraIndex {
			fmt.Fprintln(w, line)
		}
	})
	return mux
}

// Serve starts the telemetry HTTP server on addr (e.g. ":8080" or
// "127.0.0.1:0" for an ephemeral port) exposing reg. It returns once the
// listener is bound; requests are served in the background until Close.
func Serve(addr string, reg *metrics.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("telemetry: listen %s: %w", addr, err)
	}
	mux := Mux(reg)

	s := &Server{
		URL: "http://" + ln.Addr().String(),
		ln:  ln,
		srv: &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second},
	}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound listen address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down.
func (s *Server) Close() error { return s.srv.Close() }
