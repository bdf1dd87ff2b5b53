package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/cluster"
)

// tracedRun produces the per-layer metrics. It runs the workload twice for a
// quarter of the time each — spans off, then spans on with the server (if
// any) tracing every request — writes the harness's spans to
// out/trace-<workload>.json, and then measures every layer from outside:
// direct calls into its public functions and the endpoints the program
// already exposes. Layers the workload itself drives (serve on the serving
// workloads, fftx on sim_paper) are read from its traced phase; the others
// from a short phase of their own, so that every run reports every metric.
func tracedRun(name string, seed int64, seconds float64, e env) (*measurement, map[string]metric, error) {
	phase := time.Duration(seconds / 4 * float64(time.Second))
	e.setupReps = 1
	plain, err := measure(name, seed, phase, e, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := &tracer{}
	traced, err := measure(name, seed, phase, e, tr)
	if err != nil {
		return nil, nil, err
	}
	path, err := tr.write("out", name)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("# %d spans written to %s\n", len(tr.spans), filepath.Join("bench", path))

	out := map[string]metric{}
	ops := float64(len(traced.okLatencies()))
	p50plain, p50traced := median(plain.okLatencies()), median(traced.okLatencies())
	out["bench.tracing_overhead_pct"] = metric{100 * (p50traced/p50plain - 1), "%"}
	out["loadgen.sched_lag_p90_ms"] = metric{quantile(traced.lagMS, 0.9), "ms"}
	out["loadgen.client_cpu_ms_per_op"] = metric{1e3 * traced.clientCPU / ops, "ms"}
	out["proc.peak_rss_mb"] = metric{peakRSSMB(os.Getpid()), "MiB"}

	// serve: codecs by direct call, the rest from a traced serving phase.
	if err := codecProbe(seed, out); err != nil {
		return nil, nil, err
	}
	serving := traced
	if serving.serve == nil {
		if serving, err = measure(serveJSON.name, seed, 2*time.Second, e, &tracer{}); err != nil {
			return nil, nil, err
		}
	} else {
		out["proc.peak_rss_mb"] = metric{serving.serve.peakRSSMB, "MiB"}
	}
	serveLayer(serving, out)

	if err := clusterLayer(seed, e, out); err != nil {
		return nil, nil, err
	}
	kernelLayer(seed, out)

	cycles := traced.sim
	if cycles == nil {
		w := &simWorkload{seed: seed, env: e}
		if err := w.setup(); err != nil {
			return nil, nil, err
		}
		c, _ := w.cycle(nil)
		cycles = []simCycle{c}
	}
	simLayer(cycles, out)
	if err := simProbes(out); err != nil {
		return nil, nil, err
	}
	return traced, out, nil
}

// clusterLayer starts a router in front of two workers and measures what
// the relay adds to a 16×16×16 binary request: median latency through the
// router minus median latency straight to the worker that served it.
func clusterLayer(seed int64, e env, out map[string]metric) error {
	var workers []*server
	defer func() {
		for _, s := range workers {
			_ = s.stop()
		}
	}()
	var addrs []string
	for i := 0; i < 2; i++ {
		s, err := startServer(e.fftxd, "-trace-sample", "0")
		if err != nil {
			return err
		}
		workers = append(workers, s)
		addrs = append(addrs, s.addr())
	}
	router, err := startServer(e.fftxd, "-router", "-peers", strings.Join(addrs, ","))
	if err != nil {
		return err
	}
	workers = append(workers, router) // stopped with the others
	var topo cluster.Topology
	for deadline := time.Now().Add(10 * time.Second); topo.Ring.Members < 2; time.Sleep(10 * time.Millisecond) {
		body, err := httpGet(router.url + "/debug/fftx/cluster")
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &topo); err != nil {
			return fmt.Errorf("/debug/fftx/cluster: %w", err)
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("router admitted %d of 2 workers within 10 s", topo.Ring.Members)
		}
	}

	c := class{[]int{16, 16, 16}, 1}
	p, err := newPayload(rand.New(rand.NewSource(seed)), c, true, transformer(c.dims))
	if err != nil {
		return err
	}
	cl := newClient()
	defer cl.close()
	worker := ""
	// p50 of a fixed request count after a fixed warm-up, one client.
	p50 := func(base string) (float64, error) {
		const warm, measured = 50, 400
		var ms []float64
		for i := 0; i < warm+measured; i++ {
			t := time.Now()
			r, err := cl.post(base+"/fft", "application/octet-stream", p.body, false)
			if err != nil {
				return 0, err
			}
			if !checkResponse(&p, true, r.status, r.body, i%verifyEvery == 0) {
				return 0, fmt.Errorf("cluster probe: wrong reply from %s (status %d)", base, r.status)
			}
			worker = r.worker
			if i >= warm {
				ms = append(ms, float64(r.done.Sub(t))/1e6)
			}
		}
		return median(ms), nil
	}
	relayed, err := p50(router.url)
	if err != nil {
		return err
	}
	if !strings.HasPrefix(worker, "http") {
		worker = "http://" + worker
	}
	direct, err := p50(worker)
	if err != nil {
		return err
	}
	out["cluster.relay_overhead_ms"] = metric{relayed - direct, "ms"}

	ring := cluster.NewRing(addrs, cluster.DefaultVNodes)
	const lookups = 1 << 16
	t := time.Now()
	for i := 0; i < lookups; i++ {
		ring.Lookup("f3d:16x16x16", 2)
	}
	out["cluster.ring_lookup_ns"] = metric{float64(time.Since(t).Nanoseconds()) / lookups, "ns"}
	share := 0.0
	for _, s := range topo.Ring.Shares {
		share = max(share, s)
	}
	out["cluster.worker_share_max"] = metric{share, "ratio"}
	sums, err := router.scrape()
	if err != nil {
		return err
	}
	out["cluster.retries"] = metric{sums["fftxd_cluster_retries_total"], "count"}
	return nil
}
