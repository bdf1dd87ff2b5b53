// Command fftxd is the network-facing FFT daemon: it serves 1-D/2-D/3-D
// transform requests and cost-mode pipeline simulations over HTTP, batching
// same-shape requests to amortize plan lookup and twiddle-table reuse, with
// bounded queueing and 503 + Retry-After backpressure (see README
// "Serving").
//
// Usage:
//
//	fftxd [flags]            serve until SIGINT/SIGTERM, then drain
//	fftxd -router [flags]    route requests across a cluster of workers
//	fftxd -loadgen [flags]   drive load against -target (or a self-hosted
//	                         in-process server) and print a report
//
// Server flags:
//
//	-addr 127.0.0.1:8472   listen address (use :0 for an ephemeral port)
//	-workers N             batch-executing goroutines (default GOMAXPROCS)
//	-queue 256             admission queue depth (full => 503 + Retry-After)
//	-max-batch 32          transforms coalesced per batch (1 disables)
//	-batch-window 500us    how long a partial batch waits for company
//	-max-elems N           per-request element budget
//	-drain-timeout 10s     graceful-drain budget on shutdown
//	-hostpar               host-parallel kernels (default true)
//	-engine task-iter      default fftx engine for pipeline requests that do
//	                       not name one (original|task-steps|task-iter|
//	                       task-combined|dataflow|auto); requests override per call
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
// Loadgen flags (with -loadgen):
//
//	-target URL        server to load (default: self-host in process)
//	-concurrency 8     client goroutines (closed loop keeps one request
//	                   in flight per client)
//	-duration 2s       run length (or -requests N for a fixed count)
//	-rate 0            open-loop arrival rate in req/s (0 = closed loop)
//	-dims 16x16x16     transform shape mix; comma-separate for multiple
//	                   classes (e.g. 8x8,16x16x16) — the report breaks
//	                   quantiles down per class
//	-batch 1           transforms per request
//	-binary            use the length-prefixed wire format
//	-trace-sample 0.05 fraction of loadgen requests stamped with client
//	                   trace IDs (report counts echoes, flags mismatches)
//	-json              print the report as JSON (scripts/cluster-smoke.sh
//	                   reads it)
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
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/fft"
	"repro/internal/fftx"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/serve"
	"repro/internal/serve/loadgen"
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
		batchWindow = flag.Duration("batch-window", 500*time.Microsecond, "batch coalescing window")
		maxElems    = flag.Int("max-elems", serve.DefaultMaxElements, "per-request element budget")
		drainT      = flag.Duration("drain-timeout", 10*time.Second, "graceful-drain budget on shutdown")
		hostpar     = flag.Bool("hostpar", true, "fan batch rows out over host cores")
		defEngine   = flag.String("engine", "", "default engine for pipeline requests (original|task-steps|task-iter|task-combined|dataflow|auto; empty = task-iter)")
		traceSample = flag.Float64("trace-sample", 0.05, "fraction of requests traced (server) or stamped with trace IDs (loadgen)")
		logLevel    = flag.String("log-level", "info", "structured log level: debug|info|warn|error")
		joinURL     = flag.String("join", "", "cluster router base URL to register with (worker mode)")

		rtMode     = flag.Bool("router", false, "route requests across a cluster of workers instead of serving")
		rtPeers    = flag.String("peers", "", "router: comma-separated static worker addresses (host:port)")
		rtAttempts = flag.Int("max-attempts", 3, "router: replica attempts per request before giving up")

		lgMode    = flag.Bool("loadgen", false, "drive load instead of serving")
		lgTarget  = flag.String("target", "", "loadgen: server base URL (default: self-host in process)")
		lgConc    = flag.Int("concurrency", 8, "loadgen: client goroutines")
		lgReqs    = flag.Int("requests", 0, "loadgen: stop after this many requests (0 = -duration)")
		lgDur     = flag.Duration("duration", 2*time.Second, "loadgen: run length")
		lgRate    = flag.Float64("rate", 0, "loadgen: open-loop arrival rate in req/s (0 = closed loop)")
		lgDims    = flag.String("dims", "16x16x16", "loadgen: transform shape, e.g. 256 or 64x64 or 16x16x16")
		lgBatch   = flag.Int("batch", 1, "loadgen: transforms per request")
		lgBinary  = flag.Bool("binary", false, "loadgen: use the binary wire format")
		lgJSON    = flag.Bool("json", false, "loadgen: print the report as JSON")
		lgDeadl   = flag.Duration("deadline", 0, "loadgen: per-request queueing deadline")
		lgBackwrd = flag.Bool("backward", false, "loadgen: request backward transforms")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: fftxd [flags] | fftxd -loadgen [flags]")
		return 2
	}
	par.SetEnabled(*hostpar)
	if *defEngine != "" {
		if _, err := fftx.ParseEngine(*defEngine); err != nil {
			fmt.Fprintf(os.Stderr, "fftxd: unknown engine %q\n", *defEngine)
			return 2
		}
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
		Addr:          *addr,
		Workers:       *workers,
		QueueDepth:    *queueDepth,
		MaxBatch:      *maxBatch,
		BatchWindow:   *batchWindow,
		MaxElements:   *maxElems,
		Cache:         &fft.Cache{},
		DefaultEngine: *defEngine,
		TraceSample:   *traceSample,
		Logger:        logger,
	}

	if *lgMode {
		shapes, err := parseShapeMix(*lgDims, *lgBatch, *lgBackwrd)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fftxd:", err)
			return 2
		}
		opts := loadgen.Options{
			Target:      *lgTarget,
			Concurrency: *lgConc,
			Requests:    *lgReqs,
			Duration:    *lgDur,
			Rate:        *lgRate,
			Shapes:      shapes,
			Binary:      *lgBinary,
			Deadline:    *lgDeadl,
			TraceSample: *traceSample,
		}
		return runLoadgen(cfg, opts, *lgJSON, *drainT)
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
	fmt.Printf("fftxd: serving /fft, /healthz, /metrics, /debug/fftx/requests, /debug/pprof at %s (workers=%d queue=%d max-batch=%d window=%s trace-sample=%g)\n",
		srv.URL(), srv.Workers(), cfg.QueueDepth, cfg.MaxBatch, cfg.BatchWindow, cfg.TraceSample)
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

// runLoadgen drives load, self-hosting a server when no target is given.
func runLoadgen(cfg serve.Config, opts loadgen.Options, asJSON bool, drainTimeout time.Duration) int {
	var srv *serve.Server
	if opts.Target == "" {
		cfg.Addr = "127.0.0.1:0"
		srv = serve.New(cfg)
		if err := srv.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "fftxd:", err)
			return 1
		}
		opts.Target = srv.URL()
		fmt.Fprintf(os.Stderr, "fftxd: self-hosted server at %s (workers=%d max-batch=%d)\n",
			opts.Target, srv.Workers(), cfg.MaxBatch)
	}
	rep, err := loadgen.Run(context.Background(), opts)
	if srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		if derr := srv.Shutdown(ctx); derr != nil && err == nil {
			err = derr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxd:", err)
		return 1
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		_ = enc.Encode(rep)
		return 0
	}
	fmt.Printf("fftxd loadgen: %s %s, %d clients: %d sent, %d ok, %d errors in %.2fs\n",
		rep.Mode, rep.Shape, rep.Concurrency, rep.Sent, rep.OK, rep.Errors, rep.ElapsedSec)
	fmt.Printf("  throughput %.1f req/s, mean batch %.2f rows\n", rep.Throughput, rep.MeanBatchRows)
	fmt.Printf("  latency mean %.3fms p50 %.3fms p90 %.3fms p99 %.3fms max %.3fms\n",
		rep.MeanSec*1e3, rep.P50Sec*1e3, rep.P90Sec*1e3, rep.P99Sec*1e3, rep.MaxSec*1e3)
	if len(rep.PerShape) > 1 {
		keys := make([]string, 0, len(rep.PerShape))
		for k := range rep.PerShape {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			sr := rep.PerShape[k]
			fmt.Printf("  shape %-20s %6d ok, mean %.3fms p50 %.3fms p90 %.3fms p99 %.3fms\n",
				k+":", sr.OK, sr.MeanSec*1e3, sr.P50Sec*1e3, sr.P90Sec*1e3, sr.P99Sec*1e3)
		}
	}
	if len(rep.PerWorker) > 0 {
		keys := make([]string, 0, len(rep.PerWorker))
		for k := range rep.PerWorker {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			wr := rep.PerWorker[k]
			fmt.Printf("  worker %-28s %6d ok, %d errors, mean %.3fms p50 %.3fms p99 %.3fms\n",
				k+":", wr.OK, wr.Errors, wr.MeanSec*1e3, wr.P50Sec*1e3, wr.P99Sec*1e3)
		}
	}
	if rep.TraceSent > 0 {
		fmt.Printf("  tracing: %d stamped, %d echoed, %d mismatched\n",
			rep.TraceSent, rep.TraceEchoed, rep.TraceMismatch)
		if rep.SlowestTraceID != "" {
			fmt.Printf("  slowest traced request %.3fms: trace %s (see /debug/fftx/requests)\n",
				rep.SlowestSec*1e3, rep.SlowestTraceID)
		}
	}
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

// parseShapeMix parses a comma-separated -dims mix like "8x8,16x16x16" into
// loadgen shape classes; batch and backward apply to every class.
func parseShapeMix(s string, batch int, backward bool) ([]loadgen.Shape, error) {
	var shapes []loadgen.Shape
	for _, part := range strings.Split(s, ",") {
		dims, err := parseDims(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		shapes = append(shapes, loadgen.Shape{Dims: dims, Batch: batch, Backward: backward})
	}
	return shapes, nil
}

// parseDims parses "256", "64x64" or "16x16x16".
func parseDims(s string) ([]int, error) {
	parts := strings.Split(s, "x")
	if len(parts) < 1 || len(parts) > 3 {
		return nil, fmt.Errorf("dims %q: want 1 to 3 x-separated sizes", s)
	}
	dims := make([]int, len(parts))
	for i, p := range parts {
		d, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("dims %q: bad size %q", s, p)
		}
		dims[i] = d
	}
	return dims, nil
}
