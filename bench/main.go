// Command bench is the repository's one benchmark: four workloads, each
// stressing different layers, measured end to end (BENCHMARK.json names the
// metrics and their regression bounds) and, on a traced run, layer by layer.
// See README.md in this directory for what each workload and metric means.
//
// Usage, from this directory (bash run.sh does the same with the Go build
// cache kept inside the checkout):
//
//	go run . [-seed N] [-seconds S] [-runs R] [-out file]   all four workloads
//	go run . -workload NAME [-seed N] [-seconds S] [-trace 1]
//	go run . -compare a.json b.json
//	go run . -selfcheck [-runs R]
//
// With -workload the last line of standard output is one JSON object with
// the keys correct, attempted, failed and metrics: the end-to-end metrics
// with -trace 0, the per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// The latency limits behind slo_ok_ratio: three times the p90 measured when
// the benchmark was defined, rounded to two digits, and frozen here. An op
// that fails, is refused or is wrong misses the limit too.
const (
	limitServeJSON       = 29.0   // ms
	limitServeBinaryOpen = 79.0   // ms
	limitKernelBatch     = 13.0   // ms
	limitSimPaper        = 2200.0 // ms: 3 × the costliest engine's median run
)

// defaultSeconds is the measured time of one run (run_seconds in
// BENCHMARK.json).
const defaultSeconds = 24

var workloadNames = []string{"serve_json", "serve_binary_open", "kernel_batch", "sim_paper"}

// env is what a workload needs from its surroundings. The zero counts make
// a set-up without warm-up; fullEnv is what every reported run uses.
type env struct {
	fftxd string // path of the built server
	// setupReps is how often set-up is repeated; setup_s is the median.
	setupReps int
	// Fixed warm-up counts, so that setup_s measures the same work on every
	// run and commit.
	warmRequests  int
	warmKernelOps int
	// simBands is NB of the simulated configuration.
	simBands int
}

func fullEnv(fftxd string) env {
	return env{fftxd: fftxd, setupReps: 3, warmRequests: 200, warmKernelOps: 200, simBands: 128}
}

// workload is one of the four programs-under-load.
type workload interface {
	// setup generates inputs and references from the seed, starts the
	// program and runs the fixed warm-up.
	setup() error
	// run measures for at least d, recording spans when tr is not nil.
	run(d time.Duration, tr *tracer) (*measurement, error)
	// teardown stops what setup started and waits for it to end.
	teardown()
}

func newWorkload(name string, seed int64, e env, traced bool) (workload, error) {
	switch name {
	case "serve_json":
		return &serveWorkload{spec: serveJSON, seed: seed, env: e, traced: traced}, nil
	case "serve_binary_open":
		return &serveWorkload{spec: serveBinaryOpen, seed: seed, env: e, traced: traced}, nil
	case "kernel_batch":
		return &kernelWorkload{seed: seed, env: e}, nil
	case "sim_paper":
		return &simWorkload{seed: seed, env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// measure sets the workload up e.setupReps times, keeping the last, and
// runs its measured phase.
func measure(name string, seed int64, d time.Duration, e env, tr *tracer) (*measurement, error) {
	w, err := newWorkload(name, seed, e, tr != nil)
	if err != nil {
		return nil, err
	}
	var setupS []float64
	for i := 0; i < e.setupReps; i++ {
		if i > 0 {
			w.teardown()
		}
		t := time.Now()
		if err := w.setup(); err != nil {
			w.teardown()
			return nil, fmt.Errorf("%s: set-up: %w", name, err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	defer w.teardown()
	m, err := w.run(d, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	m.setupS = setupS
	return m, nil
}

// result is the last line a single-workload run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runRecord is one run in an -out file.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	result
}

// runOne runs one workload in this process and prints its metrics.
func runOne(name string, seed int64, seconds float64, traced bool, fftxd string) (result, error) {
	if fftxd == "" && (traced || strings.HasPrefix(name, "serve_")) {
		var err error
		if fftxd, err = buildServer(); err != nil {
			return result{}, err
		}
	}
	e := fullEnv(fftxd)
	var m *measurement
	var metrics map[string]metric
	var err error
	if traced {
		m, metrics, err = tracedRun(name, seed, seconds, e)
	} else {
		m, err = measure(name, seed, time.Duration(seconds*float64(time.Second)), e, nil)
		if err == nil {
			metrics = m.endToEnd()
		}
	}
	if err != nil {
		return result{}, err
	}
	res := result{Correct: m.failed() == 0, Attempted: len(m.samples), Failed: m.failed(), Metrics: metrics}
	for _, k := range sortedKeys(metrics) {
		fmt.Printf("%s/%s %v %s\n", name, k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Printf("%s: attempted %d, ok %d, failed %d\n", name, res.Attempted, res.Attempted-res.Failed, res.Failed)
	return res, nil
}

// runSet runs every workload runs times, each run in a fresh child process
// so that no workload inherits another's heap, caches or CPU frequency
// state, and returns the parsed results.
func runSet(seed int64, seconds float64, runs int, traced bool) ([]runRecord, error) {
	fftxd, err := buildServer()
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	var records []runRecord
	for _, name := range workloadNames {
		for r := 0; r < runs; r++ {
			s := seed + int64(r)
			cmd := exec.Command(self, "-workload", name, "-seed", fmt.Sprint(s),
				"-seconds", fmt.Sprint(seconds), "-trace", trace, "-fftxd", fftxd)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
			if err != nil {
				return nil, fmt.Errorf("%s (seed %d): %w", name, s, err)
			}
			rec := runRecord{Workload: name, Seed: s}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.result); err != nil {
				return nil, fmt.Errorf("%s (seed %d): last line is not a result: %w", name, s, err)
			}
			records = append(records, rec)
		}
	}
	return records, nil
}

func writeRecords(path string, records []runRecord) error {
	data, err := json.MarshalIndent(records, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func readRecords(path string) ([]runRecord, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var records []runRecord
	if err := json.Unmarshal(data, &records); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return records, nil
}

func main() {
	var (
		name      = flag.String("workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all, one child process each)")
		seed      = flag.Int64("seed", 1, "seed of every generated input and of the simulator's work variance")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured time of one run")
		traceFlag = flag.Int("trace", 0, "1: record spans and report the per-layer metrics instead of the end-to-end ones")
		runs      = flag.Int("runs", 1, "runs per workload (seed, seed+1, …) when running all workloads")
		outPath   = flag.String("out", "", "also write the results of all runs to this JSON file")
		compare   = flag.Bool("compare", false, "compare two -out files: bench -compare base.json new.json")
		selfcheck = flag.Bool("selfcheck", false, "run all workloads twice (-runs each) and compare the two sets")
		fftxd     = flag.String("fftxd", "", "path of an already built fftxd (default: build it)")
	)
	flag.Parse()
	if err := realMain(*name, *seed, *seconds, *traceFlag == 1, *runs, *outPath, *compare, *selfcheck, *fftxd); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(name string, seed int64, seconds float64, traced bool, runs int, outPath string, compare, selfcheck bool, fftxd string) error {
	switch {
	case compare:
		if flag.NArg() != 2 {
			return fmt.Errorf("usage: bench -compare base.json new.json")
		}
		spec, err := readSpec()
		if err != nil {
			return err
		}
		base, err := readRecords(flag.Arg(0))
		if err != nil {
			return err
		}
		next, err := readRecords(flag.Arg(1))
		if err != nil {
			return err
		}
		if compareSets(os.Stdout, spec, base, next) > 0 {
			return fmt.Errorf("regressed")
		}
		return nil
	case selfcheck:
		spec, err := readSpec()
		if err != nil {
			return err
		}
		first, err := runSet(seed, seconds, runs, false)
		if err != nil {
			return err
		}
		second, err := runSet(seed, seconds, runs, false)
		if err != nil {
			return err
		}
		if compareSets(os.Stdout, spec, first, second) > 0 {
			return fmt.Errorf("two sets of runs of the same code disagree")
		}
		return nil
	case name != "":
		res, err := runOne(name, seed, seconds, traced, fftxd)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	records, err := runSet(seed, seconds, runs, traced)
	if err != nil {
		return err
	}
	if outPath != "" {
		if err := writeRecords(outPath, records); err != nil {
			return err
		}
	}
	line, err := json.Marshal(records)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}
