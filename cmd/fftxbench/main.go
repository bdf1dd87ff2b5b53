// Command fftxbench regenerates the tables and figures of "Performance
// Analysis and Optimization of the FFTXlib on the Intel Knights Landing
// Architecture" (Wagner et al., ICPP Workshops 2017) on the simulated KNL
// node, as markdown.
//
// Usage:
//
//	fftxbench [flags] report|<section>
//
// report prints every section under a header; its output is EXPERIMENTS.md
// (`make experiments`). The sections are fig2, table1, fig3, table2, fig6,
// fig7, sweep, ablation, sensitivity, bandsweep and engines (the
// per-engine runtime matrix with the auto selector's pick).
//
// Flags select the workload (defaults are the paper's parameters: energy
// cutoff 80 Ry, lattice parameter 20 bohr, 128 bands, 8 task groups):
//
//	-ecut 80 -alat 20 -nb 128 -ntg 8   workload parameters
//	-quick                             scaled-down smoke-run parameters
//	-save-trace dir                    write the fig3/fig7 traces as JSON
//
// Observability (see README "Observability"):
//
//	-serve addr        expose /metrics, /debug/vars and /debug/pprof on addr
//	                   (e.g. :8080 or 127.0.0.1:0) and keep serving after the
//	                   experiments until interrupted
//	-cpuprofile file   write a runtime/pprof CPU profile
//	-memprofile file   write a heap profile on exit
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		ecut    = flag.Float64("ecut", 80, "plane-wave energy cutoff in Ry")
		alat    = flag.Float64("alat", 20, "lattice parameter in bohr")
		nb      = flag.Int("nb", 128, "number of bands")
		ntg     = flag.Int("ntg", 8, "task groups / threads per rank")
		quick   = flag.Bool("quick", false, "use the scaled-down smoke-run suite")
		saveDir = flag.String("save-trace", "", "directory to save fig3/fig7 traces as JSON")
		strict  = flag.Bool("strict", false, "enable runtime invariant checks (collective shapes, tag discipline, task-graph cycles)")
		serve   = flag.String("serve", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: fftxbench [flags] report|%s\n", strings.Join(core.Sections(), "|"))
		return 2
	}

	if *cpuProf != "" {
		stop, err := telemetry.StartCPUProfile(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fftxbench:", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintln(os.Stderr, "fftxbench:", err)
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			if err := telemetry.WriteHeapProfile(*memProf); err != nil {
				fmt.Fprintln(os.Stderr, "fftxbench:", err)
			}
		}()
	}

	var tsrv *telemetry.Server
	if *serve != "" {
		var err error
		tsrv, err = telemetry.Serve(*serve, metrics.Default())
		if err != nil {
			fmt.Fprintln(os.Stderr, "fftxbench:", err)
			return 1
		}
		defer tsrv.Close()
		// Printed before the experiments so scripted consumers can scrape
		// the live endpoints while the run is in progress.
		fmt.Printf("telemetry: serving /metrics, /debug/vars, /debug/pprof at %s\n", tsrv.URL)
	}

	suite := core.PaperSuite()
	if *quick {
		suite = core.QuickSuite()
	} else {
		suite.Ecut, suite.Alat, suite.NB, suite.NTG = *ecut, *alat, *nb, *ntg
	}
	suite.Strict = *strict

	name := flag.Arg(0)
	var err error
	if name == "report" {
		err = suite.WriteReport(os.Stdout)
	} else {
		err = suite.WriteSection(os.Stdout, name)
	}
	if err == nil && *saveDir != "" {
		err = saveTraces(suite, name, *saveDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "fftxbench:", err)
		return 1
	}

	if tsrv != nil {
		// Keep the endpoints up after the experiments so the final metric
		// values remain scrapeable; exit on interrupt.
		fmt.Printf("telemetry: experiments done, still serving at %s (interrupt to exit)\n", tsrv.URL)
		ch := make(chan os.Signal, 1)
		signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
		<-ch
	}
	return 0
}

// saveTraces writes the traces behind the fig3 and fig7 sections (both for
// report) as JSON into dir. The runs are already in the suite's table.
func saveTraces(suite *core.Suite, name, dir string) error {
	traces := map[string]*trace.Trace{}
	if name == "fig3" || name == "report" {
		r, err := suite.Fig3()
		if err != nil {
			return err
		}
		traces["fig3.json"] = r.Result.Trace
	}
	if name == "fig7" || name == "report" {
		orig, task, err := suite.Fig7()
		if err != nil {
			return err
		}
		traces["fig7-original.json"], traces["fig7-task.json"] = orig.Trace, task.Trace
	}
	for file, tr := range traces {
		path := filepath.Join(dir, file)
		if err := tr.Save(path); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "trace saved to", path)
	}
	return nil
}
