package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	rtmetrics "runtime/metrics"
	"sort"
	"strconv"
	"strings"
)

// spec declares one reported metric. BENCHMARK.json lists the same
// names, units and directions; the tests hold the two together.
type spec struct{ name, unit, better string }

// endToEnd are the metrics a user of the simulator sees, reported by
// every workload with --trace 0. An op is one closed-loop pass for the
// three simulation workloads and one open-loop request for fredd-mixed.
var endToEnd = []spec{
	{"setup_s", "s", "lower"},
	{"op_p50_ms", "ms", "lower"},
	{"op_tail_ms", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// cpuPackages are the packages whose share of leaf-frame CPU self time
// the traced run reports.
var cpuPackages = []string{
	"sim", "netsim", "collective", "training", "topology", "fred",
	"meshrouter", "multiwafer", "experiments", "metrics", "critpath",
	"timeseries", "serve", "encoding_json", "runtime",
}

// perLayer are the metrics of single layers, reported by every
// workload with --trace 1.
func perLayer() []spec {
	s := []spec{
		{"sim.events_per_pass", "count", "lower"},
		{"sim.ns_per_event", "ns", "lower"},
		{"netsim.recomputes_per_pass", "count", "lower"},
		{"netsim.fill_passes_per_pass", "count", "lower"},
		{"netsim.lazy_skip_ratio", "ratio", "higher"},
		{"netsim.flows_filled_per_pass", "count", "lower"},
		{"netsim.domains_filled_per_pass", "count", "lower"},
		{"netsim.fill_pool_speedup", "x", "higher"},
		{"collective.compile_cold_us", "us", "lower"},
		{"collective.compile_warm_ns", "ns", "lower"},
		{"collective.replay_us", "us", "lower"},
		{"experiments.schedcache_speedup", "x", "higher"},
		{"experiments.parallel_speedup", "x", "higher"},
	}
	for _, st := range paperStudies {
		s = append(s, spec{"study." + st.name + "_s", "s", "lower"})
	}
	for _, c := range trainingLadder() {
		s = append(s, spec{"training." + c.key + "_ms", "ms", "lower"})
	}
	s = append(s, []spec{
		{"topology.build_mesh_us", "us", "lower"},
		{"topology.build_fred_us", "us", "lower"},
		{"multiwafer.build_ms", "ms", "lower"},
		{"multiwafer.run_ms", "ms", "lower"},
		{"observe.overhead_ratio", "ratio", "lower"},
		{"observe.export_ms", "ms", "lower"},
		{"observe.artifact_bytes", "B", "lower"},
		{"serve.hot_ms_p50", "ms", "lower"},
		{"serve.cold_allreduce_ms_p50", "ms", "lower"},
		{"serve.cold_training_ms_p99", "ms", "lower"},
		{"serve.queue_wait_ms_p50", "ms", "lower"},
		{"serve.queue_wait_ms_p99", "ms", "lower"},
		{"serve.job_wall_ms_p50", "ms", "lower"},
		{"serve.cache_hit_ratio", "ratio", "higher"},
		{"serve.body_bytes_p50", "B", "lower"},
		{"serve.req_p999_ms", "ms", "lower"},
		{"serve.late_p99_ms", "ms", "lower"},
		{"runtime.gc_cpu_share", "ratio", "lower"},
		{"runtime.alloc_bytes_per_op", "B", "lower"},
		{"runtime.allocs_per_op", "count", "lower"},
	}...)
	for _, pkg := range cpuPackages {
		s = append(s, spec{"cpu." + pkg + "_share", "ratio", "lower"})
	}
	return append(s, spec{"trace.overhead_ratio", "ratio", "lower"}, spec{"host.probe_ms", "ms", "lower"})
}

// percentile returns the nearest-rank p-th percentile of x (0 < p ≤
// 100), or NaN for no samples.
func percentile(x []float64, p float64) float64 {
	if len(x) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(x []float64) float64 { return percentile(x, 50) }

// quartiles returns the first and third quartiles of x the way
// Python's statistics.quantiles(x, n=4) computes them (the "exclusive"
// method), so spreads printed here match any script checking them.
func quartiles(x []float64) (q1, q3 float64) {
	s := append([]float64(nil), x...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / float64(n)
	}
	if len(s) < 2 {
		return math.NaN(), math.NaN()
	}
	return q(1), q(3)
}

// peakRSSMB reads the process's peak resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, allocObjects, gcCPU, totalCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]rtmetrics.Sample, len(runtimeMetricNames))
	for i, name := range runtimeMetricNames {
		samples[i].Name = name
	}
	rtmetrics.Read(samples)
	v := make([]float64, len(samples))
	for i, s := range samples {
		switch s.Value.Kind() {
		case rtmetrics.KindUint64:
			v[i] = float64(s.Value.Uint64())
		case rtmetrics.KindFloat64:
			v[i] = s.Value.Float64()
		}
	}
	return runtimeSample{allocBytes: v[0], allocObjects: v[1], gcCPU: v[2], totalCPU: v[3]}
}
