// Command fredsim regenerates the tables and figures of the FRED
// paper's evaluation on the simulator.
//
// Usage:
//
//	fredsim <experiment> [-ab] [-csv] [-parallel N] [-trace out.json]
//	        [-linkstats] [-cpuprofile out.pprof]
//
// Experiments, in paper order (the usage text prints the same list
// from experiments.Studies):
//
//	hw         Tables 3-5: physical parameters and FRED overhead
//	fig1       Figure 1: 3D-parallelism groups of MP(4)-DP(3)-PP(2)
//	meshio     Section 3.2.1: mesh I/O hotspot law
//	placement  Figure 5: device placement trade-off
//	nonaligned Figure 6: non-aligned strategy congestion
//	fig2       Figure 2: Transformer-17B strategies on the baseline mesh
//	fig9       Figure 9: communication microbenchmarks per fabric
//	fig10      Figure 10: end-to-end training, all workloads (-ab adds Fred-A/B)
//	fig11a     Figure 11(a): Transformer-17B strategy sweep, baseline vs Fred-D
//	fig11b     Figure 11(b): Transformer-1T strategy sweep
//	scaling    extension: wafer-size scaling, mesh vs FRED tree
//	scaleout   extension: hierarchical multi-wafer scale-out vs NPU count
//	inference  future work: auto-regressive decode latency
//	crossover  Section 2.2: endpoint all-reduce algorithm crossover
//	batch      extension: minibatch sensitivity
//	profile    per-class communication profile, baseline and Fred-D
//	packets    validation: flow-level vs flit-level mesh
//	heat       per-link traffic heatmap of MP(3)-DP(3)-PP(2) on the mesh
//	ablations  seven design-choice ablations, from middle stages to pipeline schedule
//	ep         extension: beyond-3D parallelism (Expert Parallelism)
//	faults     robustness: FRED vs mesh under injected µswitch/link failures
//	summary    headline numbers, paper vs this reproduction
//	all        every experiment above, in this order, as one sweep
//
// The experiment may also be named with -study (fredsim -study faults).
// A failing experiment cell no longer aborts the whole run: the other
// cells complete, the failure is reported, and fredsim exits non-zero.
//
// With -csv, tables are emitted as CSV instead of aligned text.
//
// Parallelism:
//
//	-parallel N       fan independent figure/table cells across N
//	                  workers (default 0 = GOMAXPROCS; 1 = sequential).
//	                  Each cell is a self-contained simulation, and rows
//	                  and tables merge back in paper order, so the
//	                  output is byte-identical at every N. `all` runs
//	                  each experiment as a cell of one sweep, and the
//	                  experiments' own cells share the same N workers.
//	                  A -trace file is byte-identical at every N too:
//	                  each simulation is named by its place in the
//	                  sweep, not by the order it was built in.
//
// Observability:
//
//	-trace out.json   record a Chrome trace-event JSON of every
//	                  simulation the experiment runs (flow lifecycles,
//	                  per-link utilization counters, collective-op
//	                  spans); load it at https://ui.perfetto.dev or
//	                  summarize it with cmd/fredtrace
//	-linkstats        append per-training-run top-10 link hotspot
//	                  tables (honours -csv)
//	-metrics f.json   write a versioned fred-metrics artifact (run
//	                  manifest + every counter/gauge/histogram series:
//	                  flow counts, per-link utilization distributions,
//	                  training breakdowns, per-NPU attribution); compare
//	                  two artifacts with cmd/fredreport. Byte-identical
//	                  at every -parallel N.
//	-critpath f.json  write a versioned fred-critpath artifact: the
//	                  per-iteration causal critical path of every
//	                  training run (blame decomposition into compute /
//	                  comm-serialized / comm-contention / fault-recovery
//	                  / idle, dominant segments with binding links);
//	                  summarize it with fredtrace -critpath.
//	                  Byte-identical at every -parallel N.
//	-timeseries f     write a versioned fred-timeseries artifact: the
//	                  flight recorder's sampled load series (event-heap
//	                  depth, active flows, fill work, delivered bytes,
//	                  link utilization, cumulative critpath blame) per
//	                  simulation; summarize it with fredtrace
//	                  -timeseries. Byte-identical at every -parallel N.
//	-progress         live self-overwriting status line on stderr:
//	                  cells done/total, elapsed wall time, ETA
//	-debug-addr a     serve a debug HTTP endpoint on a (host:port):
//	                  /progress JSON, /progress/stream SSE,
//	                  /debug/vars expvar, /debug/pprof
//	-cpuprofile f     write a runtime/pprof CPU profile of the
//	                  simulator process itself
//	-memprofile f     write an end-of-run heap (allocs) profile
//	-mutexprofile f   write an end-of-run mutex-contention profile
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/obs"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/timeseries"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver with the process boundary injected: argv
// without the program name, the two output streams, and the exit code
// as the return value. Exit conventions (shared by every fred binary):
// 0 success, 1 a run that started but failed, 2 bad usage — unknown
// flag, unknown experiment, or missing argument, always with usage on
// stderr.
func run(args []string, stdout, stderr io.Writer) int {
	// The experiment is named positionally (fredsim faults ...) or with
	// the -study alias (fredsim -study faults ...); either way the
	// remaining arguments go to the per-experiment flag set.
	cmd := ""
	switch {
	case len(args) >= 1 && strings.HasPrefix(args[0], "-study="):
		cmd = strings.TrimPrefix(args[0], "-study=")
		args = args[1:]
	case len(args) >= 2 && (args[0] == "-study" || args[0] == "--study"):
		cmd = args[1]
		args = args[2:]
	case len(args) >= 1 && !strings.HasPrefix(args[0], "-"):
		cmd = args[0]
		args = args[1:]
	}
	if cmd == "" {
		usage(stderr)
		return 2
	}
	includeAB := false
	csv := false
	parallel := 0
	tracePath := ""
	linkStats := false
	metricsPath := ""
	critPathOut := ""
	tsPath := ""
	progress := false
	debugAddr := ""
	cpuProfile := ""
	memProfile := ""
	mutexProfile := ""
	fs := flag.NewFlagSet(cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() { usage(stderr) }
	fs.BoolVar(&includeAB, "ab", false, "include Fred-A and Fred-B in fig10")
	fs.BoolVar(&csv, "csv", false, "emit CSV instead of aligned tables")
	fs.IntVar(&parallel, "parallel", 0, "worker-pool size for independent cells (0 = GOMAXPROCS, 1 = sequential)")
	fs.StringVar(&tracePath, "trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	fs.BoolVar(&linkStats, "linkstats", false, "report top-10 link hotspots per training run")
	fs.StringVar(&metricsPath, "metrics", "", "write a fred-metrics JSON artifact (manifest + all series) to this file")
	fs.StringVar(&critPathOut, "critpath", "", "write a fred-critpath JSON artifact (per-iteration blame decomposition) to this file")
	fs.StringVar(&tsPath, "timeseries", "", "write a fred-timeseries JSON artifact (flight-recorder load series per simulation) to this file")
	fs.BoolVar(&progress, "progress", false, "show a live status line (cells done/total, elapsed, ETA) on stderr")
	fs.StringVar(&debugAddr, "debug-addr", "", "serve the debug HTTP endpoint (/progress, /progress/stream, /debug/vars, /debug/pprof) on this host:port")
	fs.StringVar(&cpuProfile, "cpuprofile", "", "write a CPU profile of the simulator to this file")
	fs.StringVar(&memProfile, "memprofile", "", "write an end-of-run heap profile to this file")
	fs.StringVar(&mutexProfile, "mutexprofile", "", "write an end-of-run mutex-contention profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fredsim: unexpected argument %q\n\n", fs.Arg(0))
		usage(stderr)
		return 2
	}

	session := experiments.NewSession()
	session.SetParallel(parallel)
	if tracePath != "" {
		session.CollectTrace(true)
	}
	if linkStats {
		session.CollectLinkStats(true)
	}
	if metricsPath != "" {
		session.CollectMetrics(true)
	}
	if critPathOut != "" {
		session.CollectCritPath(true)
	}
	if tsPath != "" {
		session.CollectTimeseries(true)
	}
	var status *obs.StatusLine
	if progress || debugAddr != "" {
		engine := obs.NewEngine(nil)
		session.SetProgress(engine)
		if progress {
			status = obs.NewStatusLine(stderr, "fredsim")
			engine.OnUpdate(status.Update)
		}
		if debugAddr != "" {
			if _, err := obs.StartServer(debugAddr, engine, stderr); err != nil {
				fmt.Fprintln(stderr, "fredsim:", err)
				return 1
			}
		}
	}
	stopProfiles, err := report.StartProfiles(cpuProfile, memProfile, mutexProfile)
	if err != nil {
		fmt.Fprintln(stderr, "fredsim:", err)
		return 1
	}
	defer stopProfiles()

	emit := func(tbls ...*report.Table) {
		for _, t := range tbls {
			if csv {
				fmt.Fprint(stdout, t.CSV())
				fmt.Fprintln(stdout)
			} else {
				fmt.Fprintln(stdout, t)
			}
		}
	}

	if cmd == "all" {
		emit(session.All(includeAB)...)
	} else if st, ok := experiments.LookupStudy(cmd); ok {
		emit(st.Run(session, includeAB)...)
	} else {
		var names []string
		for _, st := range experiments.Studies {
			names = append(names, st.Name)
		}
		fmt.Fprintf(stderr, "fredsim: unknown experiment %q (valid: %s all)\n\n",
			cmd, strings.Join(names, " "))
		usage(stderr)
		return 2
	}
	if status != nil {
		status.Done()
	}

	// A panicking or failing cell no longer kills the run: forEach
	// recovers it, the surviving cells complete, and the aggregate
	// surfaces here as a non-zero exit.
	exitCode := 0
	if err := session.Err(); err != nil {
		fmt.Fprintln(stderr, "fredsim:", err)
		exitCode = 1
	}

	if linkStats {
		emit(session.LinkStatsTables()...)
	}
	// The manifest records what was simulated, never how the work was
	// scheduled (-parallel, file paths), so artifacts from any pool size
	// compare byte-for-byte.
	command := cmd
	if includeAB {
		command += " -ab"
	}
	if metricsPath != "" {
		art := session.Metrics().Export(metrics.Manifest{
			Tool:    "fredsim",
			Command: command,
		})
		if err := art.WriteFile(metricsPath); err != nil {
			fmt.Fprintln(stderr, "fredsim:", err)
			return 1
		}
		fmt.Fprintf(stderr, "fredsim: wrote %d metric series to %s\n",
			len(art.Series), metricsPath)
	}
	if critPathOut != "" {
		art := critpath.Export(metrics.Manifest{
			Tool:    "fredsim",
			Command: command,
		}, session.CritPathCells())
		if err := art.WriteFile(critPathOut); err != nil {
			fmt.Fprintln(stderr, "fredsim:", err)
			return 1
		}
		fmt.Fprintf(stderr, "fredsim: wrote %d critical-path iterations to %s\n",
			len(art.Cells), critPathOut)
	}
	if tsPath != "" {
		art := timeseries.Export(metrics.Manifest{
			Tool:    "fredsim",
			Command: command,
		}, session.TimeseriesCells())
		if err := art.WriteFile(tsPath); err != nil {
			fmt.Fprintln(stderr, "fredsim:", err)
			return 1
		}
		fmt.Fprintf(stderr, "fredsim: wrote %d flight-recorder cells to %s\n",
			len(art.Cells), tsPath)
	}
	if tracePath != "" {
		rec := session.Trace()
		rec.SetProcessName("fredsim " + cmd)
		if err := rec.WriteFile(tracePath); err != nil {
			fmt.Fprintln(stderr, "fredsim:", err)
			return 1
		}
		fmt.Fprintf(stderr, "fredsim: wrote %d trace events (%d spans) to %s\n",
			rec.Len(), rec.Spans(), tracePath)
	}
	return exitCode
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: fredsim <experiment> [-ab] [-csv] [-parallel N] [-trace out.json]
               [-linkstats] [-metrics out.json] [-critpath out.json]
               [-timeseries out.json] [-progress] [-debug-addr host:port]
               [-cpuprofile out.pprof] [-memprofile out.pprof]
               [-mutexprofile out.pprof]
       fredsim -study <experiment> [flags]

experiments:
`)
	for _, st := range experiments.Studies {
		fmt.Fprintf(w, "  %-11s%s\n", st.Name, st.Desc)
	}
	fmt.Fprintf(w, "  %-11s%s\n", "all", "every experiment above, in this order, as one sweep")
}
