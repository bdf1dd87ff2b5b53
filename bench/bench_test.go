package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"regexp"
	"testing"
	"time"

	"repro/internal/serve"
)

// quickEnv keeps the workloads' structure but shrinks the fixed set-up work
// and the simulated band count, so the whole suite runs in seconds.
func quickEnv(t *testing.T) env {
	t.Helper()
	fftxd, err := buildServer()
	if err != nil {
		t.Fatal(err)
	}
	return env{fftxd: fftxd, setupReps: 1, warmRequests: 16, warmKernelOps: 1, simBands: 16}
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics requires got to hold exactly the metrics want names, each
// finite, well named and in the unit BENCHMARK.json gives.
func checkMetrics(t *testing.T, what string, got map[string]metric, want []specMetric) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d metrics reported, BENCHMARK.json names %d", what, len(got), len(want))
	}
	for _, m := range want {
		v, ok := got[m.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is not reported", what, m.Name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s = %v", what, m.Name, v.Value)
		case v.Unit != m.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, m.Name, v.Unit, m.Unit)
		case !metricName.MatchString(m.Name):
			t.Errorf("%s: metric name %q is malformed", what, m.Name)
		}
	}
}

func TestEveryWorkloadReportsEveryEndToEndMetric(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json names %d workloads, the harness has %d", len(spec.Workloads), len(workloadNames))
	}
	if spec.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the harness's default is %d", spec.RunSeconds, defaultSeconds)
	}
	e := quickEnv(t)
	for i, name := range workloadNames {
		if spec.Workloads[i].Name != name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, spec.Workloads[i].Name, name)
		}
		m, err := measure(name, 1, time.Second, e, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.samples) == 0 || m.failed() != 0 {
			t.Errorf("%s: %d ops attempted, %d failed", name, len(m.samples), m.failed())
		}
		checkMetrics(t, name, m.endToEnd(), spec.EndToEnd)
	}
}

// The traced run of a workload that drives neither the server nor the
// simulator must still report every per-layer metric.
func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	spec, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	m, got, err := tracedRun("kernel_batch", 1, 2, quickEnv(t))
	if err != nil {
		t.Fatal(err)
	}
	if m.failed() != 0 {
		t.Errorf("%d of %d traced ops failed", m.failed(), len(m.samples))
	}
	checkMetrics(t, "kernel_batch -trace 1", got, spec.PerLayer)
}

func TestCorruptedResponseIsCaught(t *testing.T) {
	c := class{[]int{8, 8}, 2}
	for _, binary := range []bool{true, false} {
		p, err := newPayload(rand.New(rand.NewSource(7)), c, binary, transformer(c.dims))
		if err != nil {
			t.Fatal(err)
		}
		encode := func(data []float64) []byte {
			resp := &serve.Response{Data: data, BatchSize: 2}
			if binary {
				return serve.EncodeResponse(resp)
			}
			body, _ := json.Marshal(resp)
			return body
		}
		good := encode(p.want)
		if !checkResponse(&p, binary, http.StatusOK, good, true) {
			t.Errorf("binary=%v: the correct response is rejected", binary)
		}
		bad := append([]float64(nil), p.want...)
		bad[5] += 1e-6
		if checkResponse(&p, binary, http.StatusOK, encode(bad), true) {
			t.Errorf("binary=%v: a response off by 1e-6 in one value passes the full check", binary)
		}
		if checkResponse(&p, binary, http.StatusOK, good[:len(good)/2], false) {
			t.Errorf("binary=%v: a truncated response passes the length check", binary)
		}
		if checkResponse(&p, binary, http.StatusServiceUnavailable, good, false) {
			t.Errorf("binary=%v: a 503 counts as ok", binary)
		}
	}
}

func TestDriftingRuntimeIsCaught(t *testing.T) {
	w := &simWorkload{env: env{simBands: 16}}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if !w.repeats(1, 0.62) || !w.repeats(1, 0.62) {
		t.Error("a repeated runtime is reported as drift")
	}
	if !w.repeats(1, math.Nextafter(0.62, 1)) {
		t.Error("a runtime one ulp off the first run fails (task-steps does this at HEAD)")
	}
	if w.repeats(1, 0.62*(1+1e-9)) {
		t.Error("a runtime 1e-9 off the first run passes")
	}
	if !w.repeats(2, 0.66) {
		t.Error("engines share a reference runtime")
	}
}

func TestKernelCheckCatchesWrongTransform(t *testing.T) {
	w := &kernelWorkload{seed: 1}
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := w.one(nil); !ok {
		t.Fatal("a correct op is rejected")
	}
	w.orig[3][5] += 1e-6 // the round trip no longer returns the input
	if _, _, ok := w.one(nil); ok {
		t.Error("a round trip off by 1e-6 passes")
	}
	w.orig[3][5] = w.data[3][5]
	w.dftRef[0][2] *= 1 + 1e-6 // the forward pass no longer matches the DFT
	if _, _, ok := w.one(nil); ok {
		t.Error("a forward bin off by 1e-6 relative passes")
	}
}

// kernel_batch's timing metrics rest on each window's fastest op, so ops the
// host slowed down must not move them.
func TestQuietMetricsIgnoreSlowedOps(t *testing.T) {
	ms := func(x float64) time.Time { return time.Unix(0, int64(x*1e6)) }
	build := func(slowed float64) map[string]metric {
		m := &measurement{quiet: true, limitMS: 100, cpuBlocks: []float64{3 * slowed, 3, 3.5 * slowed}}
		for k := 0; k <= 3; k++ {
			m.bounds = append(m.bounds, ms(float64(1000*k)))
			m.cpuAt = append(m.cpuAt, float64(k))
			m.memAt = append(m.memAt, memCounters{})
		}
		// Per window: ops of 2 ms (2.5 ms with their verification), every
		// other one lengthened by the host.
		for at, i := 0.0, 0; at < 2990; i++ {
			d := 2.0
			if i%2 == 1 {
				d *= slowed
			}
			m.samples = append(m.samples, sample{start: ms(at), end: ms(at + d), ok: true})
			at += d + 0.5
		}
		return m.endToEnd()
	}
	calm, noisy := build(1), build(4)
	for _, name := range []string{"op_p50_ms", "op_p90_over_p50", "cpu_ms_per_op"} {
		if calm[name] != noisy[name] {
			t.Errorf("%s is %v on a calm host and %v on a noisy one", name, calm[name].Value, noisy[name].Value)
		}
	}
	if got := noisy["op_p50_ms"].Value; got != 2 {
		t.Errorf("op_p50_ms = %v, want the 2 ms of an undisturbed op", got)
	}
	if got := noisy["ops_per_s"].Value; math.Abs(got-400) > 1e-6 {
		t.Errorf("ops_per_s = %v, want 400 (one op and its check every 2.5 ms)", got)
	}
}

func TestJudge(t *testing.T) {
	lower := specMetric{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		m          specMetric
		base, next []float64
		want       string
	}{
		{lower, []float64{10, 10.1, 9.9, 10}, []float64{10.5, 10.4, 10.6, 10.5}, verdictOK},
		{lower, []float64{10, 10.1, 9.9, 10}, []float64{11.5, 11.4, 11.6, 11.5}, verdictRegressed},
		{higher, []float64{100, 101, 99, 100}, []float64{85, 86, 84, 85}, verdictRegressed},
		{higher, []float64{100, 101, 99, 100}, []float64{120, 121, 119, 120}, verdictOK},
		// Spread wider than the bound: no verdict …
		{lower, []float64{8, 10, 12, 14}, []float64{9, 10, 11, 13}, verdictUnresolved},
		// … unless every new run beats every base run.
		{lower, []float64{8, 10, 12, 14}, []float64{4, 5, 6, 7}, verdictOK},
	}
	for i, c := range cases {
		if got, _, _ := judge(c.m, c.base, c.next); got != c.want {
			t.Errorf("case %d: %s, want %s", i, got, c.want)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	ms := func(n int64) time.Time { return time.Unix(0, n*1e6) }
	tr := &tracer{}
	id := tr.reserve("op", 0, ms(0))
	tr.add("send", id, 0, ms(1), ms(4))
	tr.add("read", id, 0, ms(3), ms(6)) // overlaps send by 1 ms
	tr.finish(id, ms(10), "")
	for _, s := range summarize(tr.spans) {
		if s.Name == "op" && (s.TotalMS != 10 || s.SelfMS != 5) {
			t.Errorf("op: total %v ms, self %v ms; want 10 and 5", s.TotalMS, s.SelfMS)
		}
	}
}
