// Command fredtrain simulates one 3D-parallel training iteration with
// every knob exposed: workload, fabric, strategy, minibatch, pipeline
// schedule and DP bucketing.
//
// Usage:
//
//	fredtrain [-model t17b] [-system Fred-D] [-mp 3 -dp 3 -pp 2]
//	          [-batch 16] [-schedule gpipe|1f1b] [-buckets 1] [-profile]
//	          [-trace out.json] [-linkstats] [-metrics out.json]
//	          [-critpath out.json] [-timeseries out.json] [-progress]
//	          [-debug-addr host:port] [-cpuprofile out.pprof]
//	          [-memprofile out.pprof] [-mutexprofile out.pprof]
//
// Models: resnet152, t17b, gpt3, t1t.
// Systems: Baseline, Fred-A, Fred-B, Fred-C, Fred-D.
//
// -trace records the iteration as Chrome trace-event JSON (flow
// lifecycles, link-utilization counters, one span per collective op)
// for Perfetto or cmd/fredtrace; -linkstats prints the top-10 link
// hotspots of the run; -metrics writes a versioned fred-metrics JSON
// artifact (run manifest, iteration breakdown, per-class comm profile,
// per-NPU time attribution, per-link utilization distributions) for
// cmd/fredreport; -critpath records the iteration's causal critical
// path and writes a fred-critpath JSON artifact (blame decomposition
// into compute / comm-serialized / comm-contention / fault-recovery /
// idle, dominant segments with binding links) for fredtrace -critpath;
// -timeseries writes a fred-timeseries JSON artifact (the flight
// recorder's sampled load series) for fredtrace -timeseries; -progress
// and -debug-addr expose live wall-clock progress; -cpuprofile /
// -memprofile / -mutexprofile profile the simulator itself.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	fredapi "github.com/wafernet/fred"
	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netobs"
	"github.com/wafernet/fred/internal/obs"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/trace"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver with the process boundary injected. Exit
// conventions (shared by every fred binary): 0 success, 1 a run that
// started but failed, 2 bad usage — unknown flag, unknown model /
// system / schedule, or unexpected argument, always with usage on
// stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fredtrain", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fredtrain [-model t17b] [-system Fred-D] [-schedule gpipe] [flags]")
		fs.PrintDefaults()
	}
	modelName := fs.String("model", "t17b", "workload: resnet152, t17b, gpt3, t1t")
	system := fs.String("system", "Fred-D", "fabric: Baseline, Fred-A..Fred-D")
	mp := fs.Int("mp", 0, "model-parallel size (0: Table 6 default)")
	dp := fs.Int("dp", 0, "data-parallel size")
	pp := fs.Int("pp", 0, "pipeline size")
	batch := fs.Int("batch", 16, "samples per DP replica")
	schedule := fs.String("schedule", "gpipe", "pipeline schedule: gpipe or 1f1b")
	buckets := fs.Int("buckets", 1, "DP gradient buckets (overlap granularity)")
	profile := fs.Bool("profile", false, "print the per-class communication profile")
	tracePath := fs.String("trace", "", "write a Chrome trace-event JSON (Perfetto-loadable) to this file")
	linkStats := fs.Bool("linkstats", false, "print the top-10 link hotspots of the run")
	metricsPath := fs.String("metrics", "", "write a fred-metrics JSON artifact (manifest + all series) to this file")
	critPathOut := fs.String("critpath", "", "write a fred-critpath JSON artifact (per-iteration blame decomposition) to this file")
	tsPath := fs.String("timeseries", "", "write a fred-timeseries JSON artifact (flight-recorder load series) to this file")
	progress := fs.Bool("progress", false, "show a live status line on stderr")
	debugAddr := fs.String("debug-addr", "", "serve the debug HTTP endpoint (/progress, /progress/stream, /debug/vars, /debug/pprof) on this host:port")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the simulator to this file")
	memProfile := fs.String("memprofile", "", "write an end-of-run heap profile to this file")
	mutexProfile := fs.String("mutexprofile", "", "write an end-of-run mutex-contention profile to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "fredtrain: unexpected argument %q\n\n", fs.Arg(0))
		fs.Usage()
		return 2
	}

	m, err := lookupModel(*modelName)
	if err != nil {
		fmt.Fprintln(stderr, "fredtrain:", err)
		fs.Usage()
		return 2
	}
	strat := fredapi.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP}
	if *mp > 0 {
		strat.MP = *mp
	}
	if *dp > 0 {
		strat.DP = *dp
	}
	if *pp > 0 {
		strat.PP = *pp
	}
	sched, err := lookupSchedule(*schedule)
	if err != nil {
		fmt.Fprintln(stderr, "fredtrain:", err)
		fs.Usage()
		return 2
	}
	if !validSystem(*system) {
		fmt.Fprintf(stderr, "fredtrain: unknown system %q (Baseline, Fred-A, Fred-B, Fred-C, Fred-D)\n", *system)
		fs.Usage()
		return 2
	}

	stopProfiles, err := report.StartProfiles(*cpuProfile, *memProfile, *mutexProfile)
	if err != nil {
		fmt.Fprintln(stderr, "fredtrain:", err)
		return 1
	}
	defer stopProfiles()

	// The session subscribes the observers (tracer, scheduler
	// counter, link stats, metrics, flight recorder, progress token)
	// to the build.
	session := experiments.NewSession()
	if *tracePath != "" {
		session.CollectTrace(true)
	}
	if *linkStats {
		session.CollectLinkStats(true)
	}
	if *metricsPath != "" {
		session.CollectMetrics(true)
	}
	if *critPathOut != "" {
		// Through the session rather than a post-Build SetCritPath, so
		// the flight recorder (attached at Build time) sees the blame
		// probes.
		session.CollectCritPath(true)
	}
	if *tsPath != "" {
		session.CollectTimeseries(true)
	}
	var engine *obs.Engine
	var status *obs.StatusLine
	var tok *obs.Cell
	if *progress || *debugAddr != "" {
		engine = obs.NewEngine(nil)
		if *progress {
			status = obs.NewStatusLine(stderr, "fredtrain")
			engine.OnUpdate(status.Update)
		}
		if *debugAddr != "" {
			if _, err := obs.StartServer(*debugAddr, engine, stderr); err != nil {
				fmt.Fprintln(stderr, "fredtrain:", err)
				return 1
			}
		}
		// fredtrain is one simulation: a single-cell "study" driven
		// directly rather than through the session's forEach.
		engine.StudyStarted(m.Name+" on "+*system, 1)
		tok = engine.CellStarted(m.Name+" on "+*system, 0)
		session.ObserveCell(tok)
	}
	wafer := session.Build(experiments.System(*system))
	net := wafer.Network()
	cfg := training.Config{
		Wafer:               wafer,
		Model:               m,
		Strategy:            strat,
		MinibatchPerReplica: *batch,
		GradBuckets:         *buckets,
		Schedule:            sched,
	}
	r, err := training.Simulate(cfg)
	if tok != nil {
		tok.SetSimTime(net.Scheduler().Now())
		engine.CellFinished(tok, err != nil)
		if status != nil {
			status.Done()
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "fredtrain:", err)
		return 1
	}
	net.EndRun()
	if *tracePath != "" {
		rec := session.Trace()
		rec.SetProcessName(fmt.Sprintf("fredtrain %s %s", m.Name, *system))
		rec.Span("train", "iteration", 0, r.Total,
			trace.String("model", m.Name), trace.String("system", *system))
		if err := rec.WriteFile(*tracePath); err != nil {
			fmt.Fprintln(stderr, "fredtrain:", err)
			return 1
		}
		fmt.Fprintf(stderr, "fredtrain: wrote %d trace events (%d spans) to %s\n",
			rec.Len(), rec.Spans(), *tracePath)
	}

	fmt.Fprintf(stdout, "%s on %s, %v, %d samples/replica, %s schedule\n",
		m.Name, *system, strat, *batch, sched)
	fmt.Fprintf(stdout, "iteration: %s\n", r)
	fmt.Fprintf(stdout, "per sample: %.4g ms", r.PerSample*1e3)
	if r.ActivationRecompute {
		fmt.Fprintf(stdout, "   (activation recomputation active)")
	}
	fmt.Fprintln(stdout)
	if *profile {
		fmt.Fprintf(stdout, "\ncommunication profile:\n%s", r.Comm)
	}
	manifest := metrics.Manifest{
		Tool:            "fredtrain",
		Workload:        m.Name,
		System:          *system,
		Strategy:        strat.String(),
		BatchPerReplica: *batch,
		Schedule:        sched.String(),
	}
	if *metricsPath != "" {
		r.RecordMetrics(netobs.Registry(net))
		art := session.Metrics().Export(manifest)
		if err := art.WriteFile(*metricsPath); err != nil {
			fmt.Fprintln(stderr, "fredtrain:", err)
			return 1
		}
		fmt.Fprintf(stderr, "fredtrain: wrote %d metric series to %s\n",
			len(art.Series), *metricsPath)
	}
	if *critPathOut != "" {
		if r.CritPath == nil {
			fmt.Fprintln(stderr, "fredtrain: no critical path recorded")
			return 1
		}
		it := *r.CritPath
		it.Label = fmt.Sprintf("%s %v on %s", m.Name, strat, *system)
		fmt.Fprintf(stdout, "critical path: compute %.4gs  comm-ser %.4gs  comm-cont %.4gs  fault %.4gs  idle %.4gs\n",
			it.Compute, it.CommSerial, it.CommContention, it.FaultRecovery, it.Idle)
		art := critpath.Export(manifest, []critpath.Iteration{it})
		if err := art.WriteFile(*critPathOut); err != nil {
			fmt.Fprintln(stderr, "fredtrain:", err)
			return 1
		}
		fmt.Fprintf(stderr, "fredtrain: wrote %d critical-path iterations to %s\n",
			len(art.Cells), *critPathOut)
	}
	if *tsPath != "" {
		art := timeseries.Export(manifest, session.TimeseriesCells())
		if err := art.WriteFile(*tsPath); err != nil {
			fmt.Fprintln(stderr, "fredtrain:", err)
			return 1
		}
		fmt.Fprintf(stderr, "fredtrain: wrote %d flight-recorder cells to %s\n",
			len(art.Cells), *tsPath)
	}
	if *linkStats {
		fmt.Fprintf(stdout, "\n%s", netobs.HotspotTable(net,
			fmt.Sprintf("Link hotspots: %s, %v on %s", m.Name, strat, *system), 10))
	}
	return 0
}

// validSystem reports whether name is one of the Table 5 fabrics.
func validSystem(name string) bool {
	for _, s := range experiments.Systems() {
		if string(s) == name {
			return true
		}
	}
	return false
}

func lookupModel(name string) (*workload.Model, error) {
	switch strings.ToLower(name) {
	case "resnet152", "resnet":
		return workload.ResNet152(), nil
	case "t17b", "transformer17b":
		return workload.Transformer17B(), nil
	case "gpt3":
		return workload.GPT3(), nil
	case "t1t", "transformer1t":
		return workload.Transformer1T(), nil
	}
	return nil, fmt.Errorf("unknown model %q (resnet152, t17b, gpt3, t1t)", name)
}

func lookupSchedule(name string) (training.PipelineSchedule, error) {
	switch strings.ToLower(name) {
	case "gpipe":
		return training.ScheduleGPipe, nil
	case "1f1b":
		return training.Schedule1F1B, nil
	}
	return 0, fmt.Errorf("unknown schedule %q (gpipe, 1f1b)", name)
}
