// Command fftxbench regenerates the tables and figures of "Performance
// Analysis and Optimization of the FFTXlib on the Intel Knights Landing
// Architecture" (Wagner et al., ICPP Workshops 2017) on the simulated KNL
// node.
//
// Usage:
//
//	fftxbench [flags] <experiment>
//
// Experiments: fig2, table1, fig3, table2, fig6, fig7, sweep, ablation,
// engines (the per-engine runtime matrix with the auto selector's pick),
// machines, predict, sensitivity, bandsweep, multinode, scaling, report, all.
//
// Flags select the workload (defaults are the paper's parameters: energy
// cutoff 80 Ry, lattice parameter 20 bohr, 128 bands, 8 task groups):
//
//	-ecut 80 -alat 20 -nb 128 -ntg 8   workload parameters
//	-quick                             scaled-down smoke-run parameters
//	-sweep-ranks 16                    total processes of the NTG sweep
//	-ablation-ranks 8                  rank count of the ablation
//	-save-trace dir                    write the fig3/fig7 traces as JSON
//	-hostpar=false                     disable host-core parallelism in the
//	                                   real-numerics loops (wall clock only;
//	                                   simulated results are bit-identical)
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
	"syscall"

	"repro/internal/core"
	"repro/internal/fftx"
	"repro/internal/metrics"
	"repro/internal/par"
	"repro/internal/telemetry"
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
		sweepR  = flag.Int("sweep-ranks", 16, "total MPI processes of the task-group sweep")
		ablR    = flag.Int("ablation-ranks", 8, "rank count of the ablation")
		saveDir = flag.String("save-trace", "", "directory to save fig3/fig7 traces as JSON")
		csvPath = flag.String("csv", "", "also write fig2/fig6 runtime data as CSV to this file")
		strict  = flag.Bool("strict", false, "enable runtime invariant checks (collective shapes, tag discipline, task-graph cycles)")
		hostpar = flag.Bool("hostpar", true, "fan the real-numerics loops out over host cores (simulated results are identical either way)")
		serve   = flag.String("serve", "", "serve /metrics, /debug/vars and /debug/pprof on this address (e.g. :8080)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fftxbench [flags] fig2|table1|fig3|table2|fig6|fig7|sweep|ablation|engines|machines|predict|sensitivity|bandsweep|multinode|scaling|report|all")
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

	par.SetEnabled(*hostpar)

	suite := core.PaperSuite()
	if *quick {
		suite = core.QuickSuite()
	} else {
		suite.Ecut, suite.Alat, suite.NB, suite.NTG = *ecut, *alat, *nb, *ntg
	}
	suite.Strict = *strict

	run := func(name string) error {
		switch name {
		case "fig2":
			r, err := suite.Fig2()
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
			if *csvPath != "" {
				f, err := os.Create(*csvPath)
				if err != nil {
					return err
				}
				fmt.Fprintln(f, "ranks,ntg,runtime_s")
				for _, p := range r.Curve.Points {
					fmt.Fprintf(f, "%d,%d,%.6f\n", p.Ranks, suite.NTG, p.Runtime)
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Println("csv written to", *csvPath)
			}
		case "table1":
			r, err := suite.Table1()
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "table2":
			r, err := suite.Table2()
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "fig3":
			r, err := suite.Fig3()
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
			if *saveDir != "" {
				path := filepath.Join(*saveDir, "fig3.json")
				if err := r.Result.Trace.Save(path); err != nil {
					return err
				}
				fmt.Println("trace saved to", path)
			}
		case "fig6":
			r, err := suite.Fig6()
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
			if *csvPath != "" {
				f, err := os.Create(*csvPath)
				if err != nil {
					return err
				}
				fmt.Fprintln(f, "ranks,ntg,original_s,task_s")
				for i := range r.Original.Points {
					fmt.Fprintf(f, "%d,%d,%.6f,%.6f\n",
						r.Original.Points[i].Ranks, suite.NTG,
						r.Original.Points[i].Runtime, r.Task.Points[i].Runtime)
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Println("csv written to", *csvPath)
			}
		case "fig7":
			r, err := suite.Fig7()
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
			if *saveDir != "" {
				for nm, res := range map[string]interface{ Save(string) error }{
					"fig7-original.json": r.Original.Trace,
					"fig7-task.json":     r.Task.Trace,
				} {
					path := filepath.Join(*saveDir, nm)
					if err := res.Save(path); err != nil {
						return err
					}
					fmt.Println("trace saved to", path)
				}
			}
		case "engines":
			r, err := suite.Engines()
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
			if *csvPath != "" {
				f, err := os.Create(*csvPath)
				if err != nil {
					return err
				}
				fmt.Fprintln(f, "ranks,ntg,engine,runtime_s,taskwait_s,selected")
				for _, row := range r.Rows {
					for i, e := range r.Engines {
						sel := 0
						if e == row.Selected {
							sel = 1
						}
						fmt.Fprintf(f, "%d,%d,%s,%.6f,%.6f,%d\n",
							row.Ranks, suite.NTG, e.String(), row.Runtime[i], row.Taskwait[i], sel)
					}
				}
				if err := f.Close(); err != nil {
					return err
				}
				fmt.Println("csv written to", *csvPath)
			}
		case "sweep":
			r, err := suite.SweepNTG(*sweepR)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "ablation":
			r, err := suite.Ablation(*ablR)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "machines":
			r, err := suite.Machines()
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "report":
			if err := suite.WriteReport(os.Stdout); err != nil {
				return err
			}
		case "scaling":
			for _, weak := range []bool{false, true} {
				var r *core.ScalingResult
				var err error
				if weak {
					r, err = suite.WeakScaling(fftx.EngineTaskCombined, 8, []int{1, 2, 4})
				} else {
					r, err = suite.StrongScaling(fftx.EngineTaskCombined, 8, []int{1, 2, 4})
				}
				if err != nil {
					return err
				}
				fmt.Println(r.Format())
			}
		case "multinode":
			r, err := suite.MultiNode(*ablR, []int{1, 2, 4})
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "bandsweep":
			r, err := suite.BandSweep(*ablR, []int{16, 32, 64, 128, 256})
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "sensitivity":
			r, err := suite.Sensitivity(*ablR)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		case "predict":
			r, err := suite.PredictScaling(fftx.EngineOriginal)
			if err != nil {
				return err
			}
			fmt.Println(r.Format())
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		return nil
	}

	names := []string{flag.Arg(0)}
	if flag.Arg(0) == "all" {
		names = []string{"fig2", "table1", "fig3", "table2", "fig6", "fig7", "sweep", "ablation", "engines", "machines", "predict", "sensitivity", "bandsweep", "multinode", "scaling"}
	}
	for _, nm := range names {
		if err := run(nm); err != nil {
			fmt.Fprintln(os.Stderr, "fftxbench:", err)
			return 1
		}
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
