package training

import (
	"math"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/workload"
)

// MustSimulate panics on error, for tests of known-good configurations.
// Production callers use Simulate and handle the error: on a degraded
// wafer a rejected configuration is an expected outcome, not a bug.
func MustSimulate(cfg Config) *Report {
	r, err := Simulate(cfg)
	if err != nil {
		panic(err)
	}
	return r
}

func newMesh() topology.Wafer {
	return topology.NewMesh(netsim.New(sim.NewScheduler()), topology.DefaultMeshConfig())
}

func newFred(v topology.FredVariant) topology.Wafer {
	return topology.NewFredVariant(netsim.New(sim.NewScheduler()), v)
}

func runOn(t *testing.T, w topology.Wafer, m *workload.Model) *Report {
	t.Helper()
	r, err := Simulate(Config{
		Wafer:               w,
		Model:               m,
		Strategy:            parallelism.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP},
		MinibatchPerReplica: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func speedups(t *testing.T, m *workload.Model) (fredC, fredD float64, base *Report) {
	t.Helper()
	base = runOn(t, newMesh(), m)
	c := runOn(t, newFred(topology.FredC), m)
	d := runOn(t, newFred(topology.FredD), m)
	return base.Total / c.Total, base.Total / d.Total, base
}

func inBand(t *testing.T, name string, got, paper, tol float64) {
	t.Helper()
	if math.Abs(got-paper) > tol {
		t.Errorf("%s speedup = %.2f×, paper reports %.2f× (tolerance ±%.2f)", name, got, paper, tol)
	}
}

// --- Figure 10 reproduction bands ---

func TestFigure10ResNet152(t *testing.T) {
	c, d, base := speedups(t, workload.ResNet152())
	inBand(t, "ResNet-152 Fred-C", c, 1.41, 0.15)
	inBand(t, "ResNet-152 Fred-D", d, 1.76, 0.15)
	// Pure DP: the only exposed comm is DP (input load prefetched).
	if base.Breakdown.MP != 0 || base.Breakdown.PP != 0 {
		t.Errorf("ResNet-152 has MP/PP exposure: %v", base.Breakdown)
	}
	if base.Breakdown.DP <= 0 {
		t.Error("ResNet-152 baseline shows no DP exposure")
	}
}

func TestFigure10Transformer17B(t *testing.T) {
	c, d, base := speedups(t, workload.Transformer17B())
	inBand(t, "Transformer-17B Fred-C", c, 1.75, 0.30)
	inBand(t, "Transformer-17B Fred-D", d, 1.87, 0.30)
	// All three comm classes are exercised by MP(3)-DP(3)-PP(2).
	b := base.Breakdown
	if b.MP <= 0 || b.DP <= 0 || b.PP <= 0 {
		t.Errorf("Transformer-17B baseline missing exposure classes: %v", b)
	}
	// MP dominates the baseline's exposed comm (Section 8.2: the
	// placement favours MP yet MP volume is largest).
	if b.MP < b.DP || b.MP < b.PP {
		t.Errorf("Transformer-17B baseline MP not dominant: %v", b)
	}
}

func TestFigure10GPT3(t *testing.T) {
	c, d, _ := speedups(t, workload.GPT3())
	inBand(t, "GPT-3 Fred-C", c, 1.34, 0.15)
	inBand(t, "GPT-3 Fred-D", d, 1.34, 0.15)
	// Section 8.2: Fred-C and Fred-D perform alike for GPT-3 — MP(2)
	// gains nothing from in-network execution.
	if math.Abs(c-d)/c > 0.05 {
		t.Errorf("GPT-3 Fred-C (%.2f) and Fred-D (%.2f) should be nearly equal", c, d)
	}
}

func TestFigure10Transformer1T(t *testing.T) {
	c, d, base := speedups(t, workload.Transformer1T())
	// The paper reports 1.4×; our link-level simulation additionally
	// captures load/store contention on the mesh during backward,
	// which the paper's analytic 0.65× I/O factor does not, so the
	// measured advantage is larger (see EXPERIMENTS.md). Assert the
	// shape: streaming-bound, FRED wins by the I/O hotspot factor or
	// more, Fred-C equals Fred-D.
	if c < 1.35 || c > 2.1 {
		t.Errorf("Transformer-1T Fred-C speedup = %.2f, want ≥ 1.4-class improvement", c)
	}
	if math.Abs(c-d)/c > 0.05 {
		t.Errorf("Transformer-1T Fred-C (%.2f) vs Fred-D (%.2f) should be equal", c, d)
	}
	b := base.Breakdown
	if b.Stream <= b.Compute {
		t.Errorf("Transformer-1T must be streaming-bound: %v", b)
	}
	if b.InputLoad <= 0 {
		t.Error("Transformer-1T input load must be exposed (Section 8.2)")
	}
}

func TestFigure10Ordering(t *testing.T) {
	// Fred-D ≥ Fred-C ≥ baseline for every workload.
	for _, m := range workload.Models() {
		base := runOn(t, newMesh(), m)
		c := runOn(t, newFred(topology.FredC), m)
		d := runOn(t, newFred(topology.FredD), m)
		if !(d.Total <= c.Total*1.0001 && c.Total < base.Total) {
			t.Errorf("%s ordering violated: base %g, C %g, D %g", m.Name, base.Total, c.Total, d.Total)
		}
	}
}

func TestFredAFredBBetweenBaselineAndFredC(t *testing.T) {
	// Section 8.2: "Fred-A and Fred-B results are between the baseline
	// and Fred-C" for end-to-end workloads.
	m := workload.Transformer17B()
	base := runOn(t, newMesh(), m)
	a := runOn(t, newFred(topology.FredA), m)
	b := runOn(t, newFred(topology.FredB), m)
	c := runOn(t, newFred(topology.FredC), m)
	if !(a.Total <= base.Total && a.Total >= c.Total) {
		t.Errorf("Fred-A (%g) not between baseline (%g) and Fred-C (%g)", a.Total, base.Total, c.Total)
	}
	if !(b.Total <= a.Total*1.05 && b.Total >= c.Total*0.95) {
		t.Errorf("Fred-B (%g) not between Fred-A (%g) and Fred-C (%g)", b.Total, a.Total, c.Total)
	}
}

// --- Engine mechanics ---

func TestBreakdownSumsNearTotal(t *testing.T) {
	// Compute + exposure classes decompose the critical path; the sum
	// must be within a few percent of the total (residual: the
	// critical replica can differ per segment).
	for _, m := range []*workload.Model{workload.ResNet152(), workload.Transformer17B()} {
		r := runOn(t, newMesh(), m)
		sum := r.Breakdown.Compute + r.Breakdown.TotalExposed()
		if sum < r.Total*0.9 || sum > r.Total*1.1 {
			t.Errorf("%s breakdown sum %g vs total %g", m.Name, sum, r.Total)
		}
	}
}

func TestPerSampleNormalization(t *testing.T) {
	m := workload.ResNet152()
	r := runOn(t, newMesh(), m)
	want := r.Total / float64(20*16)
	if math.Abs(r.PerSample-want) > 1e-12 {
		t.Fatalf("PerSample = %g, want %g", r.PerSample, want)
	}
}

func TestDeterminism(t *testing.T) {
	m := workload.Transformer17B()
	r1 := runOn(t, newMesh(), m)
	r2 := runOn(t, newMesh(), m)
	if r1.Total != r2.Total {
		t.Fatalf("non-deterministic: %g vs %g", r1.Total, r2.Total)
	}
}

func TestGradBucketOverlapReducesDPExposure(t *testing.T) {
	// The DP-overlap ablation: bucketing gradients must shrink (or
	// keep) the exposed DP time vs the paper's unbucketed default.
	m := workload.ResNet152()
	run := func(buckets int) *Report {
		r, err := Simulate(Config{
			Wafer:               newMesh(),
			Model:               m,
			Strategy:            parallelism.Strategy{MP: 1, DP: 20, PP: 1},
			MinibatchPerReplica: 16,
			GradBuckets:         buckets,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	one := run(1)
	eight := run(8)
	if eight.Breakdown.DP >= one.Breakdown.DP {
		t.Fatalf("bucketed DP exposure %g not below unbucketed %g",
			eight.Breakdown.DP, one.Breakdown.DP)
	}
	if eight.Total >= one.Total {
		t.Fatalf("bucketing did not help end-to-end: %g vs %g", eight.Total, one.Total)
	}
}

func TestSmallerStrategiesRun(t *testing.T) {
	// Strategies that do not use all 20 NPUs (Figure 2 includes 15-
	// and 18-worker configurations).
	m := workload.Transformer17B()
	for _, s := range []parallelism.Strategy{
		{MP: 5, DP: 3, PP: 1},
		{MP: 3, DP: 3, PP: 2},
		{MP: 20, DP: 1, PP: 1},
		{MP: 1, DP: 1, PP: 20},
	} {
		r, err := Simulate(Config{
			Wafer:               newMesh(),
			Model:               m,
			Strategy:            s,
			MinibatchPerReplica: 16,
		})
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if r.Total <= 0 || math.IsInf(r.Total, 0) || math.IsNaN(r.Total) {
			t.Fatalf("%v: bad total %g", s, r.Total)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	m := workload.ResNet152()
	if _, err := Simulate(Config{Wafer: newMesh(), Model: nil, Strategy: parallelism.Strategy{MP: 1, DP: 1, PP: 1}}); err == nil {
		t.Error("nil model accepted")
	}
	if _, err := Simulate(Config{Wafer: newMesh(), Model: m, Strategy: parallelism.Strategy{MP: 0, DP: 1, PP: 1}}); err == nil {
		t.Error("invalid strategy accepted")
	}
	if _, err := Simulate(Config{Wafer: newMesh(), Model: m, Strategy: parallelism.Strategy{MP: 21, DP: 1, PP: 1}}); err == nil {
		t.Error("oversubscribed strategy accepted")
	}
	if _, err := Simulate(Config{Wafer: newMesh(), Model: m, Strategy: parallelism.Strategy{MP: 1, DP: 1, PP: 60}}); err == nil {
		t.Error("PP > layers accepted")
	}
}

func TestDefaultMicrobatches(t *testing.T) {
	m := workload.Transformer17B()
	cases := []struct {
		pp, perReplica, want int
	}{
		{1, 40, 1},
		{2, 40, 10},
		{4, 40, 20},
		{5, 40, 20},
		{10, 40, 20},
		{20, 40, 40},
		{2, 16, 4}, // scaled down for the smaller minibatch
	}
	for _, c := range cases {
		cfg := Config{Model: m, Strategy: parallelism.Strategy{MP: 1, DP: 1, PP: c.pp}, MinibatchPerReplica: c.perReplica}
		if got := cfg.DefaultMicrobatches(); got != c.want {
			t.Errorf("PP=%d, b=%d: microbatches = %d, want %d", c.pp, c.perReplica, got, c.want)
		}
	}
	// Streaming models use PP microbatches (Section 7.3).
	g := workload.GPT3()
	cfg := Config{Model: g, Strategy: parallelism.Strategy{MP: 2, DP: 5, PP: 2}, MinibatchPerReplica: 16}
	if got := cfg.DefaultMicrobatches(); got != 2 {
		t.Errorf("GPT-3 microbatches = %d, want 2", got)
	}
}

func TestStageLayersBalanced(t *testing.T) {
	m := workload.Transformer17B()
	for _, pp := range []int{1, 2, 4, 5} {
		stages := stageLayers(m.Layers, pp)
		if len(stages) != pp {
			t.Fatalf("PP=%d: %d stages", pp, len(stages))
		}
		total := 0
		for _, st := range stages {
			if len(st) == 0 {
				t.Fatalf("PP=%d: empty stage", pp)
			}
			total += len(st)
		}
		if total != len(m.Layers) {
			t.Fatalf("PP=%d: stages cover %d layers of %d", pp, total, len(m.Layers))
		}
	}
}

func TestClassStrings(t *testing.T) {
	want := map[Class]string{ClassMP: "MP", ClassPP: "PP", ClassDP: "DP", ClassLoad: "input-load", ClassStream: "weight-stream"}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("Class %d = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestCommStatsInvariants(t *testing.T) {
	// On Fred-D (in-network), DP all-reduces inject exactly the
	// gradient volume (D per NPU-group payload byte), and MP injects
	// 2 passes × per-replica batch × per-stage MP bytes across all
	// replicas.
	m := workload.Transformer17B()
	s := parallelism.Strategy{MP: 3, DP: 3, PP: 2}
	r, err := Simulate(Config{
		Wafer:               newFred(topology.FredD),
		Model:               m,
		Strategy:            s,
		MinibatchPerReplica: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	dp := r.Comm[ClassDP]
	if dp.Ops == 0 {
		t.Fatal("no DP ops recorded")
	}
	wantDP := m.TotalParams() * workload.FP16Bytes // FP16 gradients, as large as the parameters
	if math.Abs(dp.Bytes-wantDP)/wantDP > 1e-9 {
		t.Errorf("DP injected %g bytes, want gradient volume %g", dp.Bytes, wantDP)
	}
	mp := r.Comm[ClassMP]
	var mpPerSample float64
	for _, l := range m.Layers {
		mpPerSample += float64(l.MPAllReducesPerPass) * l.ActivationBytes
	}
	wantMP := 2 /*passes*/ * 16.0 /*per-replica batch*/ * mpPerSample * float64(s.DP)
	if math.Abs(mp.Bytes-wantMP)/wantMP > 1e-9 {
		t.Errorf("MP injected %g bytes, want %g", mp.Bytes, wantMP)
	}
	if pp := r.Comm[ClassPP]; pp.Ops == 0 || pp.Bytes <= 0 {
		t.Errorf("PP stats empty: %+v", pp)
	}
	if r.Comm.String() == "" {
		t.Error("empty stats rendering")
	}
}

func TestCommStatsEndpointTrafficFactor(t *testing.T) {
	// On the mesh (endpoint rings), the schedule's injected traffic
	// sums every member's sends: N × 2(N−1)/N = 2(N−1) × the gradient
	// volume — the Section 2.2 endpoint overhead, per member
	// 2(N−1)/N·D.
	m := workload.ResNet152()
	r, err := Simulate(Config{
		Wafer:               newMesh(),
		Model:               m,
		Strategy:            parallelism.Strategy{MP: 1, DP: 20, PP: 1},
		MinibatchPerReplica: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 2.0 * 19 * m.TotalParams() * workload.FP16Bytes
	got := r.Comm[ClassDP].Bytes
	if math.Abs(got-want)/want > 1e-9 {
		t.Errorf("mesh DP traffic %g, want 2(N-1)/N x grads = %g", got, want)
	}
}

func TestPipelineStepsGPipe(t *testing.T) {
	steps := pipelineSteps(ScheduleGPipe, 3, 2, 0)
	want := []pipeStep{
		{ub: 0}, {ub: 1}, {ub: 2},
		{backward: true, ub: 2}, {backward: true, ub: 1}, {backward: true, ub: 0, lastBackward: true},
	}
	if len(steps) != len(want) {
		t.Fatalf("steps = %v", steps)
	}
	for i := range want {
		if steps[i] != want[i] {
			t.Fatalf("step %d = %+v, want %+v", i, steps[i], want[i])
		}
	}
}

func TestPipelineSteps1F1B(t *testing.T) {
	// Stage 0 of PP=2, M=4: warmup 2 forwards, then B0 F2 B1 F3 B2 B3.
	steps := pipelineSteps(Schedule1F1B, 4, 2, 0)
	var seq []string
	for _, s := range steps {
		if s.backward {
			seq = append(seq, "B")
		} else {
			seq = append(seq, "F")
		}
	}
	want := "FFBFBFBB"
	got := ""
	for _, x := range seq {
		got += x
	}
	if got != want {
		t.Fatalf("1F1B sequence %q, want %q", got, want)
	}
	// Every microbatch appears exactly once per direction; the last
	// backward is flagged.
	fs, bs := map[int]bool{}, map[int]bool{}
	for _, s := range steps {
		if s.backward {
			bs[s.ub] = true
		} else {
			fs[s.ub] = true
		}
	}
	if len(fs) != 4 || len(bs) != 4 {
		t.Fatalf("coverage F=%d B=%d", len(fs), len(bs))
	}
	if !steps[len(steps)-1].lastBackward {
		t.Fatal("final step not flagged lastBackward")
	}
}

func TestScheduleEquivalenceWithoutMemoryPressure(t *testing.T) {
	// With no recompute in play, GPipe and 1F1B move the same work and
	// land within a bubble's difference of each other.
	m := workload.Transformer17B()
	run := func(sched PipelineSchedule) *Report {
		return MustSimulate(Config{
			Wafer:               newFred(topology.FredD),
			Model:               m,
			Strategy:            parallelism.Strategy{MP: 3, DP: 3, PP: 2},
			MinibatchPerReplica: 16,
			Schedule:            sched,
		})
	}
	g := run(ScheduleGPipe)
	o := run(Schedule1F1B)
	if o.Total > g.Total*1.1 || g.Total > o.Total*1.1 {
		t.Fatalf("GPipe %g vs 1F1B %g diverge", g.Total, o.Total)
	}
	if g.Comm[ClassMP].Bytes != o.Comm[ClassMP].Bytes {
		t.Fatalf("MP traffic differs: %g vs %g", g.Comm[ClassMP].Bytes, o.Comm[ClassMP].Bytes)
	}
}

func TestOneFOneBAvoidsRecompute(t *testing.T) {
	// MP(1)-DP(2)-PP(4) at batch 40: GPipe keeps all 20 microbatches'
	// activations resident and overflows HBM (recompute); 1F1B keeps at
	// most 4 in flight and fits — running faster end to end.
	m := workload.Transformer17B()
	run := func(sched PipelineSchedule) *Report {
		return MustSimulate(Config{
			Wafer:               newFred(topology.FredD),
			Model:               m,
			Strategy:            parallelism.Strategy{MP: 1, DP: 2, PP: 4},
			MinibatchPerReplica: 40,
			Schedule:            sched,
		})
	}
	g := run(ScheduleGPipe)
	o := run(Schedule1F1B)
	if !g.ActivationRecompute {
		t.Fatal("GPipe should hit the memory wall here")
	}
	if o.ActivationRecompute {
		t.Fatal("1F1B should fit")
	}
	if o.Total >= g.Total {
		t.Fatalf("1F1B (%g) not faster than recomputing GPipe (%g)", o.Total, g.Total)
	}
}

func TestScheduleStrings(t *testing.T) {
	if ScheduleGPipe.String() != "GPipe" || Schedule1F1B.String() != "1F1B" {
		t.Fatal("schedule names")
	}
}
