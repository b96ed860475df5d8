package fred

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/workload"
)

// The benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each iteration regenerates the full artifact on fresh
// simulator instances, so b.N measures the cost of reproducing the
// result; the benchmarks also assert the headline shapes so a
// regression in the simulator fails the harness loudly.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// Each driver fans its independent cells across a worker pool sized by
// the -parallel flag (default GOMAXPROCS). The flag lives after -args
// because the go tool claims a bare -parallel for -test.parallel:
//
//	go test -bench=BenchmarkFigure10 -args -parallel 4

// parallelFlag sizes the experiment worker pool (0 = GOMAXPROCS,
// 1 = sequential).
var parallelFlag = flag.Int("parallel", 0,
	"experiment worker-pool size (0 = GOMAXPROCS); pass after -args")

// benchSession returns a fresh session honouring -parallel.
func benchSession() *experiments.Session {
	s := experiments.NewSession()
	s.SetParallel(*parallelFlag)
	return s
}

// BenchmarkAll regenerates the whole evaluation as `fredsim all -csv`
// does — every study of the registry as one sweep on a fresh session —
// and checks the CSV against the hash the benchmark module pins.
func BenchmarkAll(b *testing.B) {
	pin, err := os.ReadFile(filepath.Join("bench", "fredbench", "testdata", "paper-all.sha256"))
	if err != nil {
		b.Fatal(err)
	}
	want := strings.Fields(string(pin))[0]
	for i := 0; i < b.N; i++ {
		s := benchSession()
		h := sha256.New()
		for _, t := range s.All(false) {
			io.WriteString(h, t.CSV()+"\n")
		}
		if err := s.Err(); err != nil {
			b.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != want {
			b.Fatalf("CSV hashes to %s, want %s", got, want)
		}
	}
}

// BenchmarkFigure2 regenerates Figure 2: normalized compute vs comm of
// Transformer-17B strategies on the baseline mesh.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().Figure2()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		// Headline: MP(20)-DP(1)-PP(1) is compute-efficient but
		// comm-dominated on the mesh (Section 1).
		mp20 := rows[0]
		if mp20.Comm < mp20.Compute {
			b.Fatalf("MP(20) should be comm-dominated on the mesh: %+v", mp20)
		}
	}
}

// BenchmarkFigure9 regenerates the communication microbenchmarks.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cells, _ := benchSession().Figure9()
		times := map[string]map[experiments.System]float64{}
		for _, c := range cells {
			if times[c.Phase] == nil {
				times[c.Phase] = map[experiments.System]float64{}
			}
			times[c.Phase][c.System] = c.Time
		}
		wafer := times["MP(20) all-reduce"]
		if !(wafer[experiments.FredD] < wafer[experiments.FredC] &&
			wafer[experiments.FredC] < wafer[experiments.Baseline]) {
			b.Fatalf("wafer-wide ordering violated: %v", wafer)
		}
		// The Section 8.1 crossover: Fred-A's concurrent DP is worse
		// than the baseline's.
		dp := times["DP(5) x4 all-reduce"]
		if dp[experiments.FredA] <= dp[experiments.Baseline] {
			b.Fatalf("Fred-A DP should be worse than baseline: %v", dp)
		}
	}
}

// BenchmarkFigure10 regenerates the end-to-end training comparison.
func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().Figure10(false)
		best := map[string]float64{}
		for _, r := range rows {
			if r.System == experiments.FredD {
				best[r.Workload] = r.Speedup
			}
		}
		// Headline factors (paper: 1.76, 1.87, 1.34, 1.4).
		if best["ResNet-152"] < 1.4 || best["Transformer-17B"] < 1.5 ||
			best["GPT-3"] < 1.15 || best["Transformer-1T"] < 1.3 {
			b.Fatalf("Figure 10 speedups regressed: %v", best)
		}
	}
}

// BenchmarkFigure10AllVariants includes Fred-A and Fred-B.
func BenchmarkFigure10AllVariants(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().Figure10(true)
		if len(rows) != 4*5 {
			b.Fatalf("expected 20 rows, got %d", len(rows))
		}
	}
}

// BenchmarkFigure11a regenerates the Transformer-17B strategy sweep.
func BenchmarkFigure11a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, _ := benchSession().Figure11a()
		// Paper: 1.63× average speedup, 4.22× exposed-comm improvement.
		if sum.AvgSpeedup < 1.4 || sum.AvgExposedImprovement < 3.0 {
			b.Fatalf("Figure 11(a) aggregates regressed: %+v", sum)
		}
	}
}

// BenchmarkFigure11b regenerates the Transformer-1T strategy sweep.
func BenchmarkFigure11b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sum, _ := benchSession().Figure11b()
		// Paper: 1.44× average speedup (ours is larger; see
		// EXPERIMENTS.md), improvement everywhere.
		if sum.AvgSpeedup < 1.3 {
			b.Fatalf("Figure 11(b) aggregates regressed: %+v", sum)
		}
		for _, r := range sum.Rows {
			if r.Speedup < 1 {
				b.Fatalf("Fred-D slower than baseline for %v", r.Strategy)
			}
		}
	}
}

// BenchmarkMeshIOHotspot regenerates the Section 3.2.1 hotspot law.
func BenchmarkMeshIOHotspot(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().MeshIOStudy()
		for _, r := range rows {
			if r.W == r.H && r.Overlap != 2*r.W-1 {
				b.Fatalf("(2N-1) law broken for %dx%d: %d", r.W, r.H, r.Overlap)
			}
		}
	}
}

// BenchmarkPlacementStudy regenerates the Figure 5 trade-off.
func BenchmarkPlacementStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().PlacementStudy()
		if len(rows) != 9 {
			b.Fatalf("expected 9 rows, got %d", len(rows))
		}
	}
}

// BenchmarkTables345 regenerates the hardware tables.
func BenchmarkTables345(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tbls := HWTables()
		if len(tbls) != 3 {
			b.Fatal("expected 3 tables")
		}
	}
}

// BenchmarkSwitchRouting measures the conflict-graph routing protocol
// itself on the deployment-sized Fred_3(12) leaf switch.
func BenchmarkSwitchRouting(b *testing.B) {
	sw := NewSwitch(3, 12)
	flows := []Flow{
		AllReduce([]int{0, 1, 2, 3}),
		AllReduce([]int{4, 5, 6, 7}),
		AllReduce([]int{8, 9, 10, 11}),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.Route(flows); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCollectiveWaferAllReduce measures one wafer-wide all-reduce
// simulation on Fred-D.
func BenchmarkCollectiveWaferAllReduce(b *testing.B) {
	group := make([]int, 20)
	for i := range group {
		group[i] = i
	}
	for i := 0; i < b.N; i++ {
		p := NewFred(SystemFredD)
		p.RunCollective(p.Comm().AllReduce(group, 1e9))
	}
}

// BenchmarkTrainingIteration measures one full training-iteration
// simulation per engine: weight-stationary Transformer-17B
// MP(3)-DP(3)-PP(2) on the baseline mesh, and weight-streaming GPT-3
// at its default strategy on Fred-D.
func BenchmarkTrainingIteration(b *testing.B) {
	cases := []struct {
		name     string
		platform func() *Platform
		model    *Model
		strategy Strategy
	}{
		{"stationary", NewBaselineMesh, workload.Transformer17B(), Strategy{MP: 3, DP: 3, PP: 2}},
		{"streaming", func() *Platform { return NewFred(SystemFredD) }, workload.GPT3(), Strategy{MP: 2, DP: 5, PP: 2}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SimulateTraining(c.platform(), c.model, c.strategy, 16); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkNonAlignedStudy regenerates the Figure 6 congestion study.
func BenchmarkNonAlignedStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, _ := benchSession().NonAlignedStudy()
		if res.MaxRingHop < 2 || res.DPConcurrentTime <= res.DPSoloTime {
			b.Fatalf("Figure 6 shape regressed: %+v", res)
		}
	}
}

// BenchmarkScalabilityStudy regenerates the wafer-size scaling study.
func BenchmarkScalabilityStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().ScalabilityStudy()
		if rows[len(rows)-1].Gain <= rows[0].Gain {
			b.Fatal("scaling gain regressed")
		}
	}
}

// BenchmarkScaleOutStudy regenerates the hierarchical multi-wafer
// scale-out sweep (2 wafers up to an 8x8 grid) — end-to-end global
// all-reduce time plus the sharded rate engine's deterministic work
// counters vs NPU count.
func BenchmarkScaleOutStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().ScaleOutStudy()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
		for _, r := range rows {
			if r.Hier >= r.Naive {
				b.Fatalf("scale-out gain regressed: %+v", r)
			}
		}
	}
}

// BenchmarkInferenceStudy regenerates the decode-latency study.
func BenchmarkInferenceStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().InferenceStudy()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkCrossoverStudy regenerates the Section 2.2 algorithm
// crossover.
func BenchmarkCrossoverStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().CrossoverStudy()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkAblations regenerates every design-choice ablation.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if rows, _ := benchSession().MiddleStageAblation(); rows[0].SuccessRate == 0 {
			b.Fatal("middle-stage ablation regressed")
		}
		benchSession().RingDirectionAblation()
		benchSession().GradBucketAblation()
		benchSession().BisectionSweep()
		benchSession().MultiWaferStudy()
		benchSession().PlacementSearchAblation()
		benchSession().ScheduleAblation()
	}
}

// BenchmarkEPStudy regenerates the beyond-3D-parallelism study.
func BenchmarkEPStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().EPStudy()
		for _, r := range rows {
			if r.FredTime >= r.MeshTime {
				b.Fatal("EP study regressed")
			}
		}
	}
}

// BenchmarkBatchSensitivity regenerates the minibatch sweep.
func BenchmarkBatchSensitivity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().BatchSensitivity()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkPacketValidation cross-validates the flow and flit models.
func BenchmarkPacketValidation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, _ := benchSession().PacketValidation()
		for _, r := range rows {
			d := r.FlowRatio - r.FlitRatio
			if d < 0 {
				d = -d
			}
			if d/r.FlowRatio > 0.25 {
				b.Fatalf("models diverged: %+v", r)
			}
		}
	}
}
