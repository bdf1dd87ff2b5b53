package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// benchSpec is the part of BENCHMARK.json the harness itself reads: the
// end-to-end metrics with their direction and regression bound.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// readSpec loads BENCHMARK.json from the checkout root, one level up.
func readSpec() (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	spec := new(benchSpec)
	if err := json.Unmarshal(data, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound to two sets of runs. A median worse by
// more than the bound is a regression. Otherwise, when either set's own
// spread is wider than the bound the comparison cannot tell — unless every
// new run reads better than every base run.
func judge(m specMetric, base, next []float64) (verdict string, change, spreadMax float64) {
	sign := 1.0 // worse is up
	if m.Better == "higher" {
		sign = -1
	}
	mb, mn := median(base), median(next)
	if mb != 0 {
		change = sign * (mn - mb) / math.Abs(mb)
	}
	spreadMax = max(spread(base), spread(next))
	switch {
	case change > m.Bound:
		return verdictRegressed, change, spreadMax
	case spreadMax > m.Bound && !allBetter(sign, base, next):
		return verdictUnresolved, change, spreadMax
	}
	return verdictOK, change, spreadMax
}

// allBetter reports whether every value of next beats every value of base.
func allBetter(sign float64, base, next []float64) bool {
	for _, n := range next {
		for _, b := range base {
			if sign*(n-b) >= 0 {
				return false
			}
		}
	}
	return true
}

// values collects one end-to-end metric of one workload over a set of runs.
func values(records []runRecord, workload, name string) []float64 {
	var vs []float64
	for _, r := range records {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// compareSets prints one row per workload × end-to-end metric and returns
// how many regressed. A run that reported wrong output regresses its
// workload outright.
func compareSets(w io.Writer, spec *benchSpec, base, next []runRecord) (regressed int) {
	fmt.Fprintf(w, "%-18s %-16s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "base median", "new median", "worse", "spread", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, r := range next {
			if r.Workload == wl.Name && !r.Correct {
				fmt.Fprintf(w, "%-18s seed %d: %d of %d ops failed  %s\n", wl.Name, r.Seed, r.Failed, r.Attempted, verdictRegressed)
				regressed++
			}
		}
		for _, m := range spec.EndToEnd {
			b, n := values(base, wl.Name, m.Name), values(next, wl.Name, m.Name)
			if len(b) == 0 || len(n) == 0 {
				fmt.Fprintf(w, "%-18s %-16s missing from one set  %s\n", wl.Name, m.Name, verdictUnresolved)
				continue
			}
			verdict, change, sp := judge(m, b, n)
			if verdict == verdictRegressed {
				regressed++
			}
			fmt.Fprintf(w, "%-18s %-16s %14.6g %14.6g %+7.2f%% %7.2f%% %5.1f%%  %s\n",
				wl.Name, m.Name, median(b), median(n), 100*change, 100*sp, 100*m.Bound, verdict)
		}
	}
	return regressed
}
