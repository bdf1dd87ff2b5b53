// Package cluster scales fftxd past one process: a router front tier that
// consistent-hash routes FFT requests by transform shape onto a ring of
// worker fftxd instances, with worker discovery, active health probing and
// bounded-retry replica failover.
//
// The paper's scaling story stops at one KNL node, and one fftxd's
// admission queue is the single-node ceiling of the serving layer. The
// cluster subsystem applies the paper's locality argument across
// processes: routing by shape (the batching ShapeKey) means each worker
// sees a stable shard of the shape space, so its plan cache, scratch pools
// and batch coalescing all stay hot for exactly the shapes it owns —
// sharding for cache affinity, in the spirit of DaggerFFT's locality-aware
// FFT task placement across nodes.
//
// The subsystem has four layers:
//
//   - ring.go — the immutable consistent-hash ring (virtual nodes,
//     clockwise failover order, minimal remapping on membership change);
//   - member.go — worker membership: static peers and dynamic
//     registration (POST /cluster/join, heartbeat-refreshed) with the
//     up/draining/down health state machine;
//   - prober.go — the active health prober, which drives member states
//     off each worker's /healthz JSON body and ejects/re-admits ring
//     members;
//   - proxy.go — the /fft front end: peek the route key, try the owner,
//     fail over across replicas with jittered backoff, propagate trace
//     IDs and Retry-After per the backpressure contract.
//
// The router speaks the existing JSON and FXD1/FXR1 binary wire formats
// unchanged — clients cannot tell a router from a worker, except for the
// Fftx-Worker response header naming the worker that served them. Live
// topology is exported at /debug/fftx/cluster and the fftxd_cluster_*
// metric families; `fftxd -router` is the daemon entry point.
package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// Config tunes one Router. The zero value routes on an ephemeral localhost
// port with no members (workers join dynamically).
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Peers statically seeds the member set with worker addresses
	// ("host:port" or "http://host:port"). Workers may also self-register
	// at POST /cluster/join; both kinds are probed identically.
	Peers []string
	// VNodes is the virtual-node count per ring member (default
	// DefaultVNodes).
	VNodes int
	// MaxAttempts bounds how many replicas one request tries before the
	// router gives up with 503 (default 3; capped by the up-member count).
	MaxAttempts int
	// RetryBackoff is the base delay between replica attempts; the actual
	// wait is jittered to [backoff/2, backoff) and doubles per attempt so
	// failover never hot-loops on a struggling worker (default 2 ms).
	RetryBackoff time.Duration
	// ProbeInterval is the health-probe period (default 250 ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /healthz probe (default 1 s).
	ProbeTimeout time.Duration
	// FailAfter is how many consecutive probe failures eject a member as
	// down (default 2). A draining signal ejects immediately regardless.
	FailAfter int
	// ReadmitAfter is how many consecutive healthy probes re-admit an
	// ejected member (default 2).
	ReadmitAfter int
	// MaxElements bounds a proxied request body the same way a worker
	// does, so the router rejects oversized payloads before buffering
	// them (default serve.DefaultMaxElements).
	MaxElements int
	// RecentRoutes bounds the ring of recently routed traced requests in
	// the /debug/fftx/cluster payload (default 32).
	RecentRoutes int
	// Mux, when non-nil, is the base mux the router endpoints mount onto
	// (fftxd passes telemetry.Mux so one listener also serves /metrics and
	// /debug/pprof).
	Mux *http.ServeMux
	// Client overrides the forwarding HTTP client (tests).
	Client *http.Client
	// Logger receives membership and failover logs (default: discard).
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.VNodes <= 0 {
		c.VNodes = DefaultVNodes
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 2
	}
	if c.ReadmitAfter <= 0 {
		c.ReadmitAfter = 2
	}
	if c.MaxElements <= 0 {
		c.MaxElements = serve.DefaultMaxElements
	}
	if c.RecentRoutes <= 0 {
		c.RecentRoutes = 32
	}
	if c.Mux == nil {
		c.Mux = http.NewServeMux()
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: 60 * time.Second}
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Router is a running cluster front tier.
type Router struct {
	cfg    Config
	logger *slog.Logger

	mu      sync.RWMutex
	members map[string]*member
	ring    *Ring

	fallbackSeq atomic.Uint64 // round-robin cursor for unroutable requests

	routeLog *routeLog

	ln       net.Listener
	httpS    *http.Server
	start    time.Time
	proberWG sync.WaitGroup
	stopCh   chan struct{}

	shutdownOnce sync.Once
	shutdownErr  error
}

// NewRouter builds a Router from cfg. Call Start to bind, probe and route.
func NewRouter(cfg Config) (*Router, error) {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:      cfg,
		logger:   cfg.Logger,
		members:  map[string]*member{},
		ring:     NewRing(nil, cfg.VNodes),
		routeLog: newRouteLog(cfg.RecentRoutes),
		stopCh:   make(chan struct{}),
	}
	for _, p := range cfg.Peers {
		addr, err := normalizeAddr(p)
		if err != nil {
			return nil, fmt.Errorf("cluster: %w", err)
		}
		rt.addMember(addr, true)
	}
	cfg.Mux.HandleFunc("/fft", rt.handleFFT)
	cfg.Mux.HandleFunc("/healthz", rt.handleHealthz)
	cfg.Mux.HandleFunc("/cluster/join", rt.handleJoin)
	cfg.Mux.HandleFunc("/cluster/leave", rt.handleLeave)
	cfg.Mux.HandleFunc("/debug/fftx/cluster", rt.handleDebugCluster)
	return rt, nil
}

// Start binds the listener, starts the health prober and serves in the
// background until Shutdown.
func (rt *Router) Start() error {
	ln, err := net.Listen("tcp", rt.cfg.Addr)
	if err != nil {
		return fmt.Errorf("cluster: listen %s: %w", rt.cfg.Addr, err)
	}
	rt.ln = ln
	rt.start = time.Now()
	rt.httpS = &http.Server{Handler: rt.cfg.Mux, ReadHeaderTimeout: 5 * time.Second}
	rt.proberWG.Add(1)
	go rt.probeLoop()
	go func() { _ = rt.httpS.Serve(ln) }()
	rt.logger.Info("fftxd routing", "addr", rt.Addr(),
		"peers", len(rt.cfg.Peers), "probe_interval", rt.cfg.ProbeInterval,
		"max_attempts", rt.cfg.MaxAttempts)
	return nil
}

// Addr returns the bound listen address (host:port; "" before Start).
func (rt *Router) Addr() string {
	if rt.ln == nil {
		return ""
	}
	return rt.ln.Addr().String()
}

// URL returns the router's base URL.
func (rt *Router) URL() string { return "http://" + rt.Addr() }

// Shutdown stops the prober and closes the listener once in-flight
// exchanges finish. It is idempotent and bounded by ctx.
func (rt *Router) Shutdown(ctx context.Context) error {
	rt.shutdownOnce.Do(func() {
		close(rt.stopCh)
		rt.proberWG.Wait()
		rt.shutdownErr = rt.httpS.Shutdown(ctx)
		rt.logger.Info("router stopped", "uptime_s", time.Since(rt.start).Seconds())
	})
	return rt.shutdownErr
}

// joinBody is the POST /cluster/join and /cluster/leave payload.
type joinBody struct {
	// Addr is the worker's reachable base address ("host:port" or
	// "http://host:port").
	Addr string `json:"addr"`
}

// readJoinBody decodes and normalizes a membership request, replying with
// the error itself when the body is unusable ("" means already handled).
func (rt *Router) readJoinBody(w http.ResponseWriter, r *http.Request) string {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, map[string]string{"error": "POST only"})
		return ""
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<12))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "membership body rejected"})
		return ""
	}
	var jb joinBody
	if err := json.Unmarshal(body, &jb); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "malformed membership body"})
		return ""
	}
	addr, err := normalizeAddr(jb.Addr)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return ""
	}
	return addr
}

// handleJoin registers a worker (or refreshes its heartbeat). The member
// becomes routable once the prober verifies its /healthz, not on trust.
func (rt *Router) handleJoin(w http.ResponseWriter, r *http.Request) {
	addr := rt.readJoinBody(w, r)
	if addr == "" {
		return
	}
	m := rt.addMember(addr, false)
	rt.mu.RLock()
	state := m.state
	n := len(rt.members)
	rt.mu.RUnlock()
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "joined", "addr": addr, "state": state, "members": n,
	})
}

// handleLeave marks a worker draining — the graceful half of failover:
// workers announce their drain before their /healthz starts failing, so
// the ring ejects them without waiting out a probe cycle.
func (rt *Router) handleLeave(w http.ResponseWriter, r *http.Request) {
	addr := rt.readJoinBody(w, r)
	if addr == "" {
		return
	}
	if !rt.dropMember(addr) {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": "unknown member " + addr})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"status": "draining", "addr": addr})
}

// handleHealthz reports the router's own liveness plus the member-state
// summary. The router answers 200 while it can route to at least zero
// workers — a router with an empty ring is alive but degraded, and says so.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	rt.mu.RLock()
	counts := map[State]int{}
	for _, m := range rt.members {
		counts[m.state]++
	}
	rt.mu.RUnlock()
	status := "ok"
	if counts[StateUp] == 0 {
		status = "degraded"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   status,
		"role":     "router",
		"members":  counts,
		"uptime_s": time.Since(rt.start).Seconds(),
	})
}

// Topology is the /debug/fftx/cluster payload: the live membership, ring
// and recent routed traced requests.
type Topology struct {
	Router  string       `json:"router"`
	UptimeS float64      `json:"uptime_s"`
	Members []MemberView `json:"members"`
	Ring    RingView     `json:"ring"`
	// Recent lists recently routed traced requests, newest first; their
	// trace IDs join to the serving-side span trees at each worker's
	// /debug/fftx/requests.
	Recent []RouteView `json:"recent,omitempty"`
}

// RingView summarizes the routing ring.
type RingView struct {
	VNodes int `json:"vnodes"`
	// Members is the up-member count (the ring only holds routable
	// workers).
	Members int `json:"members"`
	// Shares is each up member's fraction of the keyspace.
	Shares map[string]float64 `json:"shares,omitempty"`
}

// Topology snapshots the cluster state (the /debug/fftx/cluster payload).
func (rt *Router) Topology() Topology {
	rt.mu.RLock()
	ring := rt.ring
	members := make([]*member, 0, len(rt.members))
	for _, m := range rt.members {
		members = append(members, m)
	}
	views := make([]MemberView, 0, len(members))
	now := time.Now()
	for _, m := range members {
		views = append(views, MemberView{
			Addr:     m.addr,
			State:    m.state,
			SinceS:   now.Sub(m.since).Seconds(),
			Static:   m.static,
			Fails:    m.fails,
			LastErr:  m.lastErr,
			Routed:   m.routed,
			Queue:    m.lastHealth.Queue,
			QueueCap: m.lastHealth.QueueCap,
			Workers:  m.lastHealth.Workers,
			Shapes:   m.lastHealth.Shapes,
		})
	}
	rt.mu.RUnlock()
	sort.Slice(views, func(i, j int) bool { return views[i].Addr < views[j].Addr })
	return Topology{
		Router:  rt.Addr(),
		UptimeS: time.Since(rt.start).Seconds(),
		Members: views,
		Ring:    RingView{VNodes: rt.cfg.VNodes, Members: ring.Size(), Shares: ring.Shares()},
		Recent:  rt.routeLog.dump(),
	}
}

// handleDebugCluster serves the live topology.
func (rt *Router) handleDebugCluster(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, rt.Topology())
}

// writeJSON mirrors the worker-side reply helper.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}
