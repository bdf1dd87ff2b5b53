// Command fftxd is the network-facing FFT daemon: it serves 1-D/2-D/3-D
// transform requests over HTTP, batching same-shape requests to amortize
// plan lookup and twiddle-table reuse, with bounded queueing and 503 +
// Retry-After backpressure (see README "Serving").
//
// Usage:
//
//	fftxd [flags]            serve until SIGINT/SIGTERM, then drain
//	fftxd -router [flags]    route requests across a cluster of workers
//
// Server flags:
//
//	-addr 127.0.0.1:8472   listen address (use :0 for an ephemeral port)
//	-workers N             batch-executing goroutines (default GOMAXPROCS)
//	-queue 256             admission queue depth (full => 503 + Retry-After)
//	-max-batch 32          transforms coalesced per batch (1 disables); a
//	                       batch goes to the first free worker, so requests
//	                       coalesce only while every worker is busy
//	-max-elems N           per-request element budget
//	-drain-timeout 10s     graceful-drain budget on shutdown
//	-trace-sample 0.05     fraction of requests traced server-side (requests
//	                       carrying a trace_id are always traced)
//	-log-level info        structured log level (debug|info|warn|error);
//	                       debug logs every traced request keyed by trace ID
//	-join URL              register with a cluster router on start and
//	                       announce the drain to it on shutdown
//
// Endpoints: POST /fft (JSON or binary wire format), /healthz, the live
// introspection surface /debug/fftx/requests (span timelines of traced
// requests), plus the standard telemetry surface /metrics, /debug/vars,
// /debug/pprof/*.
//
// Router flags (with -router; see README "Cluster serving"):
//
//	-addr 127.0.0.1:8470   listen address
//	-peers a:8472,b:8472   static worker list; workers may also self-register
//	                       with -join (either way the health prober decides
//	                       routability)
//	-max-attempts 3        replica attempts per request before 503
//
// A router serves the same POST /fft wire formats and routes each request
// by transform shape onto the worker ring, failing over on worker loss.
// Topology lives at /debug/fftx/cluster, health at /healthz, metrics in the
// fftxd_cluster_* families.
//
// fftxd generates no load of its own: bench/ (bash bench/run.sh) drives and
// measures it, and the smoke scripts under scripts/ drive it with curl.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fft"
	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		addr        = flag.String("addr", "127.0.0.1:8472", "listen address")
		workers     = flag.Int("workers", 0, "batch-executing goroutines (0 = GOMAXPROCS)")
		queueDepth  = flag.Int("queue", 256, "admission queue depth")
		maxBatch    = flag.Int("max-batch", 32, "max transforms coalesced per batch (1 disables batching)")
		maxElems    = flag.Int("max-elems", serve.DefaultMaxElements, "per-request element budget")
		drainT      = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on shutdown")
		traceSample = flag.Float64("trace-sample", 0.05, "fraction of requests traced server-side")
		logLevel    = flag.String("log-level", "info", "structured log level: debug|info|warn|error")
		joinURL     = flag.String("join", "", "cluster router base URL to register with (worker mode)")

		rtMode     = flag.Bool("router", false, "route requests across a cluster of workers instead of serving")
		rtPeers    = flag.String("peers", "", "router: comma-separated static worker addresses (host:port)")
		rtAttempts = flag.Int("max-attempts", 3, "router: replica attempts per request before giving up")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: fftxd [flags] | fftxd -router [flags]")
		return 2
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxd:", err)
		return 2
	}

	if *rtMode {
		return runRouter(*addr, *rtPeers, *rtAttempts, logger)
	}

	cfg := serve.Config{
		Addr:        *addr,
		Workers:     *workers,
		QueueDepth:  *queueDepth,
		MaxBatch:    *maxBatch,
		MaxElements: *maxElems,
		Cache:       &fft.Cache{},
		TraceSample: *traceSample,
		Logger:      logger,
	}
	return runServer(cfg, *joinURL, *drainT)
}

// buildLogger maps -log-level onto a text slog handler writing to stderr.
func buildLogger(level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lv = slog.LevelDebug
	case "info":
		lv = slog.LevelInfo
	case "warn":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown -log-level %q (want debug|info|warn|error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lv})), nil
}

// runServer serves until SIGINT/SIGTERM, then drains gracefully and prints
// a latency summary from the live metrics. With -join it registers with a
// cluster router on start and announces its drain before shutting down, so
// the router ejects it from the ring ahead of any failed request.
func runServer(cfg serve.Config, joinURL string, drainTimeout time.Duration) int {
	cfg.Mux = telemetry.Mux(metrics.Default(), "/fft", "/healthz",
		"/debug/fftx/requests")
	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "fftxd:", err)
		return 1
	}
	fmt.Printf("fftxd: serving /fft, /healthz, /metrics, /debug/fftx/requests, /debug/pprof at %s (workers=%d queue=%d max-batch=%d trace-sample=%g)\n",
		srv.URL(), srv.Workers(), cfg.QueueDepth, cfg.MaxBatch, cfg.TraceSample)
	if joinURL != "" {
		if err := clusterAnnounce(joinURL, "/cluster/join", srv.Addr()); err != nil {
			fmt.Fprintln(os.Stderr, "fftxd: join:", err)
			return 1
		}
		fmt.Printf("fftxd: joined cluster router %s as %s\n", joinURL, srv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("fftxd: %v — draining (budget %s)\n", got, drainTimeout)
	if joinURL != "" {
		if err := clusterAnnounce(joinURL, "/cluster/leave", srv.Addr()); err != nil {
			fmt.Fprintln(os.Stderr, "fftxd: leave:", err) // drain regardless
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fftxd: drain:", err)
		return 1
	}
	printLatencySummary(os.Stdout)
	fmt.Println("fftxd: drained cleanly")
	return 0
}

// clusterAnnounce posts this worker's address to a router membership
// endpoint (/cluster/join or /cluster/leave).
func clusterAnnounce(routerURL, path, addr string) error {
	body, _ := json.Marshal(map[string]string{"addr": addr})
	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Post(strings.TrimSuffix(routerURL, "/")+path,
		"application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("router replied %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	return nil
}

// runRouter fronts a cluster of fftxd workers until SIGINT/SIGTERM.
func runRouter(addr, peers string, maxAttempts int, logger *slog.Logger) int {
	var peerList []string
	for _, p := range strings.Split(peers, ",") {
		if p = strings.TrimSpace(p); p != "" {
			peerList = append(peerList, p)
		}
	}
	rt, err := cluster.NewRouter(cluster.Config{
		Addr:        addr,
		Peers:       peerList,
		MaxAttempts: maxAttempts,
		Mux: telemetry.Mux(metrics.Default(), "/fft", "/healthz",
			"/cluster/join", "/cluster/leave", "/debug/fftx/cluster"),
		Logger: logger,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxd:", err)
		return 2
	}
	if err := rt.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "fftxd:", err)
		return 1
	}
	fmt.Printf("fftxd: routing /fft at %s (%d static peers, max-attempts=%d); topology at /debug/fftx/cluster\n",
		rt.URL(), len(peerList), maxAttempts)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Printf("fftxd: %v — stopping router\n", got)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := rt.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "fftxd: router shutdown:", err)
		return 1
	}
	fmt.Println("fftxd: router stopped")
	return 0
}

// printLatencySummary renders p50/p99 of the /fft latency histogram from
// the default registry — what the server actually observed, bucketed.
func printLatencySummary(w *os.File) {
	snap := metrics.Default().Gather()
	fam := snap.Find("fftxd_request_seconds")
	if fam == nil {
		return
	}
	for _, s := range fam.Series {
		if len(s.Labels) != 1 || s.Labels[0].Value != "fft" || s.Count == 0 {
			continue
		}
		fmt.Fprintf(w, "fftxd: served %d /fft requests, latency ~p50 %.3fms ~p99 %.3fms (bucketed)\n",
			s.Count, s.Quantile(0.50)*1e3, s.Quantile(0.99)*1e3)
	}
}
