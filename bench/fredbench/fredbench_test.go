package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return &b
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkFileMatchesCode holds BENCHMARK.json to the workloads
// and metrics the benchmark declares, and to the limits its format
// sets.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark runs %s", got, want)
	}
	if len(b.EndToEnd) < 1 || len(b.EndToEnd) > 16 || len(b.PerLayer) < 1 || len(b.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics; limits are 16 and 128", len(b.EndToEnd), len(b.PerLayer))
	}
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !nameRE.MatchString(name) || seen[name] {
			t.Errorf("metric name %q is malformed or repeated", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) || (better != "higher" && better != "lower") {
			t.Errorf("metric %s: unit %q or better %q malformed", name, unit, better)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the benchmark %d", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better)
		if s := endToEnd[i]; s != (spec{m.Name, m.Unit, m.Better}) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %v, benchmark %v", i, m, s)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	layers := perLayer()
	if len(b.PerLayer) != len(layers) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(b.PerLayer), len(layers))
	}
	for i, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better)
		if s := layers[i]; s != (spec{m.Name, m.Unit, m.Better}) {
			t.Errorf("per-layer metric %d: BENCHMARK.json %v, benchmark %v", i, m, s)
		}
	}
	if b.EndToEnd[0].Name != "setup_s" {
		t.Errorf("the first end-to-end metric must be setup_s")
	}
	for _, m := range b.EndToEnd {
		if m.Bound > b.EndToEnd[0].Bound {
			t.Errorf("setup_s must have the largest bound; %s has %g", m.Name, m.Bound)
		}
	}
}

// checkResult asserts a run passed every check and reported exactly the
// declared metrics.
func checkResult(t *testing.T, name string, res *result, specs []spec) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", name, res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics, want %d", name, len(res.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := res.Metrics[s.name]
		if !ok || m.Unit != s.unit {
			t.Errorf("%s: metric %s = %+v, want unit %s", name, s.name, m, s.unit)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("%s: result does not encode: %v", name, err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(line, &keys); err != nil || len(keys) != 4 {
		t.Errorf("%s: result line %s must have exactly correct, attempted, failed, metrics", name, line)
	}
}

// TestWorkloadsQuick runs every workload briefly and checks that every
// correctness check passes and every end-to-end metric is reported.
func TestWorkloadsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator for several seconds")
	}
	for _, w := range workloads {
		cfg := &config{workload: w.name, seed: 1, seconds: 0.5, quick: true, artifacts: t.TempDir()}
		res, _, err := runWorkload(cfg, w, io.Discard)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		checkResult(t, w.name, res, endToEnd)
		for _, s := range endToEnd {
			if v := res.Metrics[s.name].Value; !(v > 0) {
				t.Errorf("%s: %s = %g, want a positive value", w.name, s.name, v)
			}
		}
	}
}

// TestTracedQuick runs one workload traced and checks that every
// per-layer metric is reported and the spans were written.
func TestTracedQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator for several seconds")
	}
	w := findWorkload("scaleout-fill")
	cfg := &config{workload: w.name, seed: 1, seconds: 1.5, quick: true, trace: true, artifacts: t.TempDir()}
	res, _, err := runWorkload(cfg, w, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, w.name+" traced", res, perLayer())
	for _, name := range []string{"cpu.netsim_share", "cpu.runtime_share", "sim.events_per_pass", "trace.overhead_ratio"} {
		if v := res.Metrics[name].Value; !(v > 0) {
			t.Errorf("%s = %g, want a positive value", name, v)
		}
	}
	data, err := os.ReadFile(filepath.Join(cfg.artifacts, "traced-spans-scaleout-fill.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans struct{ Spans []span }
	if err := json.Unmarshal(data, &spans); err != nil || len(spans.Spans) == 0 {
		t.Fatalf("traced-spans file holds no spans (%v)", err)
	}
}

// TestFredsimMatchesPin ties the benchmark's paper-all check to what
// the command line prints: `fredsim all -csv` must hash to the pinned
// value at -parallel 1 and 2.
func TestFredsimMatchesPin(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs fredsim")
	}
	bin := filepath.Join(t.TempDir(), "fredsim")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/wafernet/fred/cmd/fredsim").CombinedOutput(); err != nil {
		t.Fatalf("building fredsim: %v\n%s", err, out)
	}
	want := strings.Fields(paperAllPin)[0]
	for _, p := range []string{"1", "2"} {
		out, err := exec.Command(bin, "all", "-csv", "-parallel", p).Output()
		if err != nil {
			t.Fatalf("fredsim all -csv -parallel %s: %v", p, err)
		}
		sum := sha256.Sum256(out)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("fredsim all -csv -parallel %s hashes to %s, pinned %s", p, got, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(x, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		x      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 4.5},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		if q1, q3 := quartiles(c.x); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.x, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"github.com/wafernet/fred/internal/netsim.(*Network).fillComponent": "netsim",
		"runtime.mallocgc":                                        "runtime",
		"internal/runtime/atomic.(*Uint32).Load":                  "runtime",
		"encoding/json.(*encodeState).marshal":                    "encoding_json",
		"sort.Slice[go.shape.[]github.com/x/y.T]":                 "sort",
		"github.com/wafernet/fred/internal/sim.(*Pool).Run.func1": "sim",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestProbeAllocatesNothing keeps the host probe blind to the garbage
// collector: a run that allocated would pay for the workload's heap.
func TestProbeAllocatesNothing(t *testing.T) {
	s := newProbeSim()
	if n := testing.AllocsPerRun(3, func() { s.run(1) }); n != 0 {
		t.Errorf("probe run allocates %v times", n)
	}
}
