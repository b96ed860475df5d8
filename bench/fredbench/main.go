// Command fredbench is the repository's end-to-end benchmark. It times
// the FRED simulator the way its users meet it — the full paper sweep,
// the multi-wafer scale-out sweep, observed training runs, and the
// fredd service under mixed load — and checks every output against a
// reference. It drives the simulator only through public package
// functions, so the timings are what any caller pays.
//
// Usage (from the repository root, see bench/README.md):
//
//	bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	bash bench/run.sh --seed 1 --out run.jsonl      # every workload, one child process each
//	fredbench -summarize set1.jsonl [set2.jsonl]     # medians and quartile spreads of recorded runs
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 they are the per-layer
// metrics, measured with spans around every public call the benchmark
// makes and a CPU profile, plus a fixed ladder of layer probes.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	quick     bool // a few passes and one set-up, for tests and smoke runs
	out       string
	artifacts string
}

// nproc is the load the benchmark may apply: worker goroutines,
// connections and fill workers never exceed it.
var nproc = runtime.NumCPU()

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole command with the process boundary injected. Exit
// codes: 0 a run whose outputs were correct, 1 a run that failed or
// produced a wrong output, 2 bad usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fredbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	var summarize bool
	fs.StringVar(&cfg.workload, "workload", "all", "workload to run ("+strings.Join(workloadNames(), ", ")+"), or all to run each in its own child process")
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed (changes the inputs of observed-train and fredd-mixed)")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	fs.BoolVar(&cfg.quick, "quick", false, "one set-up and a short layer ladder (smoke runs and tests)")
	fs.StringVar(&cfg.out, "out", "", "append one JSON record (provenance and result) per workload run to this file")
	fs.StringVar(&cfg.artifacts, "artifacts", ".bench_build", "directory for traced spans and CPU profiles")
	fs.BoolVar(&summarize, "summarize", false, "summarize the -out files named as arguments instead of running")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = traceFlag == 1
	if summarize {
		if fs.NArg() == 0 {
			fmt.Fprintln(stderr, "fredbench: -summarize needs at least one -out file")
			return 2
		}
		if err := summarizeFiles(stdout, fs.Args()); err != nil {
			fmt.Fprintln(stderr, "fredbench:", err)
			return 1
		}
		return 0
	}
	if fs.NArg() > 0 || (traceFlag != 0 && traceFlag != 1) || cfg.seconds <= 0 {
		fs.Usage()
		return 2
	}
	if cfg.workload == "all" {
		return runAll(args, stdout, stderr)
	}
	w := findWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(stderr, "fredbench: unknown workload %q (valid: %s, all)\n", cfg.workload, strings.Join(workloadNames(), ", "))
		return 2
	}
	prov := provenance(&cfg)
	fmt.Fprintf(stderr, "fredbench: %s seed %d, %gs, trace %v — %s, %s, nproc %d, GOMAXPROCS %d, rev %s\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, prov.Host, prov.GoVersion, prov.NProc, prov.GOMAXPROCS, prov.GitRevision)
	res, raw, err := runWorkload(&cfg, w, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "fredbench:", err)
		return 1
	}
	if err := printResult(stdout, res); err != nil {
		fmt.Fprintln(stderr, "fredbench:", err)
		return 1
	}
	if cfg.out != "" {
		if err := appendRecord(cfg.out, record{Provenance: prov, Workload: w.name, Trace: cfg.trace, Result: res, WallClock: raw}); err != nil {
			fmt.Fprintln(stderr, "fredbench:", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's verdict and measurements, printed as the last
// line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runWorkload sets the workload up, measures it, and assembles the
// metrics of the requested mode. It also returns the untraced run's
// times before host normalization.
func runWorkload(cfg *config, w *workloadDef, stderr io.Writer) (*result, map[string]float64, error) {
	reps := 3
	if cfg.quick || cfg.trace {
		reps = 1
	}
	hp := newHostProbe()
	var r runner
	var setups []float64
	for i := 0; i < reps; i++ {
		// Each set-up starts from scratch; the median of several keeps
		// one slow first touch of the heap from deciding setup_s. The
		// previous one is freed first, so peak_rss_mb counts one.
		if r != nil {
			r.close()
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		if r, err = w.setup(cfg); err != nil {
			return nil, nil, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	d := time.Duration(cfg.seconds * float64(time.Second))
	vals := map[string]float64{}
	var raw map[string]float64
	var ph phase
	if !cfg.trace {
		ph = r.measure(d, nil, hp)
		r.close()
		s := hp.scale()
		raw = map[string]float64{
			"setup_s":    median(setups),
			"op_p50_ms":  1e3 * percentile(ph.lat, 50),
			"op_tail_ms": 1e3 * percentile(ph.lat, w.tail),
			"ops_per_s":  ph.opsPerSec,
			"probe_ms":   1e3 * median(hp.times),
		}
		vals["setup_s"] = raw["setup_s"] / s
		vals["op_p50_ms"] = raw["op_p50_ms"] / s
		vals["op_tail_ms"] = raw["op_tail_ms"] / s
		vals["ops_per_s"] = raw["ops_per_s"] * s
		rss, err := peakRSSMB()
		if err != nil {
			return nil, nil, err
		}
		vals["peak_rss_mb"] = rss
		fmt.Fprintf(stderr, "fredbench: %d ops timed, op_tail_ms is p%g; host probe %.3f ms (%.3f× the reference); wall-clock setup_s %.4g op_p50_ms %.4g op_tail_ms %.4g ops_per_s %.4g\n",
			len(ph.lat), w.tail, raw["probe_ms"], s, raw["setup_s"], raw["op_p50_ms"], raw["op_tail_ms"], raw["ops_per_s"])
	} else {
		var err error
		if ph, err = tracedRun(cfg, w, r, d, hp, vals, stderr); err != nil {
			return nil, nil, err
		}
	}
	for _, e := range ph.errs {
		fmt.Fprintln(stderr, "fredbench: failed op:", e)
	}
	specs := endToEnd
	if cfg.trace {
		specs = perLayer()
	}
	res := &result{Correct: ph.wrong == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
	for _, s := range specs {
		v, ok := vals[s.name]
		if !ok {
			return nil, nil, fmt.Errorf("internal: metric %s was not measured", s.name)
		}
		if math.IsInf(v, 1) {
			// A failed op counts as missing every latency limit; JSON has
			// no infinity, so it reads as the largest finite number.
			v = math.MaxFloat64
		}
		res.Metrics[s.name] = metric{Value: v, Unit: s.unit}
		delete(vals, s.name)
	}
	if len(vals) > 0 {
		return nil, nil, fmt.Errorf("internal: metrics measured but not declared: %v", sortedKeys(vals))
	}
	return res, raw, nil
}

// tracedRun measures a third of the window untraced and the rest with
// spans and a CPU profile, then runs the layer ladder. It fills vals
// with every per-layer metric.
func tracedRun(cfg *config, w *workloadDef, r runner, d time.Duration, hp *hostProbe, vals map[string]float64, stderr io.Writer) (phase, error) {
	before := readRuntime()
	plain := r.measure(d/3, nil, hp)
	after := readRuntime()
	tr := newTracer()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		r.close()
		return phase{}, fmt.Errorf("starting CPU profile: %w", err)
	}
	traced := r.measure(d-d/3, tr, hp)
	pprof.StopCPUProfile()
	r.close()

	ops := float64(plain.attempted)
	vals["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / (after.totalCPU - before.totalCPU)
	vals["runtime.alloc_bytes_per_op"] = (after.allocBytes - before.allocBytes) / ops
	vals["runtime.allocs_per_op"] = (after.allocObjects - before.allocObjects) / ops
	vals["trace.overhead_ratio"] = percentile(traced.lat, 50) / percentile(plain.lat, 50)
	vals["host.probe_ms"] = 1e3 * median(hp.times)
	shares, err := leafShares(prof.Bytes())
	if err != nil {
		return phase{}, err
	}
	for _, pkg := range cpuPackages {
		vals["cpu."+pkg+"_share"] = shares[pkg]
	}
	if err := os.MkdirAll(cfg.artifacts, 0o755); err != nil {
		return phase{}, err
	}
	spansPath := filepath.Join(cfg.artifacts, "traced-spans-"+w.name+".json")
	if err := tr.writeFile(spansPath, w.name); err != nil {
		return phase{}, err
	}
	profPath := filepath.Join(cfg.artifacts, "cpu-"+w.name+".pprof")
	if err := os.WriteFile(profPath, prof.Bytes(), 0o644); err != nil {
		return phase{}, err
	}
	fmt.Fprintf(stderr, "fredbench: %d spans in %s, CPU profile in %s\n", len(tr.spans), spansPath, profPath)
	tr.printSelfTimes(stderr, 12)

	lad, err := ladder(cfg)
	if err != nil {
		return phase{}, fmt.Errorf("layer ladder: %w", err)
	}
	for k, v := range lad {
		vals[k] = v
	}
	plain.merge(traced)
	return plain, nil
}

// printResult prints every metric by name with its unit, then the
// result as the last line.
func printResult(w io.Writer, res *result) error {
	for _, name := range sortedKeys(res.Metrics) {
		m := res.Metrics[name]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// runAll runs every workload, each in its own child process so that
// set-up time and peak memory are per workload. A later -workload flag
// overrides an earlier one, so each child gets the parent's flags plus
// its workload.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "fredbench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, append(args, "-workload", w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "fredbench: %s: %v\n", w.name, err)
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				return 1
			}
			code = 1
		}
	}
	return code
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
