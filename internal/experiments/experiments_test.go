package experiments

import (
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/workload"
)

func TestBuildSystems(t *testing.T) {
	for _, sys := range Systems() {
		w := NewSession().Build(sys)
		if w.NPUCount() != 20 || w.IOCCount() != 18 {
			t.Fatalf("%s: %d NPUs, %d IOCs", sys, w.NPUCount(), w.IOCCount())
		}
	}
}

func TestBuildUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown system did not panic")
		}
	}()
	NewSession().Build("Fred-X")
}

func TestFigure2ShapeClaims(t *testing.T) {
	rows, tbl := NewSession().Figure2()
	if len(rows) != 14 {
		t.Fatalf("Figure 2 has %d strategies", len(rows))
	}
	if !strings.Contains(tbl.String(), "MP(20)-DP(1)-PP(1)") {
		t.Fatal("table missing strategies")
	}
	byStrat := map[parallelism.Strategy]Fig2Row{}
	for _, r := range rows {
		byStrat[r.Strategy] = r
	}
	mp20 := byStrat[parallelism.Strategy{MP: 20, DP: 1, PP: 1}]
	mp5dp4 := byStrat[parallelism.Strategy{MP: 5, DP: 4, PP: 1}]
	// Section 1's motivating inversion: MP(20) is the most
	// compute-efficient yet its total exceeds MP(5)-DP(4)-PP(1)'s.
	if mp20.Compute >= mp5dp4.Compute {
		t.Errorf("MP(20) compute %g not below MP(5)-DP(4) %g (memory-pressure recompute)",
			mp20.Compute, mp5dp4.Compute)
	}
	if mp20.Total <= mp5dp4.Total {
		t.Errorf("MP(20) total %g should exceed MP(5)-DP(4) %g on the mesh", mp20.Total, mp5dp4.Total)
	}
}

func TestFigure9Claims(t *testing.T) {
	cells, _ := NewSession().Figure9()
	get := func(phase string, sys System) float64 {
		for _, c := range cells {
			if c.Phase == phase && c.System == sys {
				return c.Time
			}
		}
		t.Fatalf("missing cell %s/%s", phase, sys)
		return 0
	}
	// All FRED variants equal for the 2-peer MP case (Section 8.1).
	mp2 := []float64{get("MP(2) all-reduce", FredA), get("MP(2) all-reduce", FredB),
		get("MP(2) all-reduce", FredC), get("MP(2) all-reduce", FredD)}
	for _, v := range mp2[1:] {
		if v < mp2[0]*0.99 || v > mp2[0]*1.01 {
			t.Fatalf("MP(2) differs across FRED variants: %v", mp2)
		}
	}
	// Fred-A DP worse than baseline (the Section 8.1 crossover).
	if get("DP(5) x4 all-reduce", FredA) <= get("DP(5) x4 all-reduce", Baseline) {
		t.Fatal("Fred-A concurrent DP should be worse than baseline")
	}
	// Wafer-wide ordering.
	if !(get("MP(20) all-reduce", FredD) < get("MP(20) all-reduce", FredB) &&
		get("MP(20) all-reduce", FredB) < get("MP(20) all-reduce", Baseline)) {
		t.Fatal("wafer-wide ordering violated")
	}
}

func TestFigure10SpeedupBands(t *testing.T) {
	rows, _ := NewSession().Figure10(false)
	want := map[string][2]float64{ // Fred-D bands around paper values
		"ResNet-152":      {1.55, 1.95},
		"Transformer-17B": {1.7, 2.3},
		"GPT-3":           {1.15, 1.5},
		"Transformer-1T":  {1.4, 2.1},
	}
	for _, r := range rows {
		if r.System != FredD {
			continue
		}
		band := want[r.Workload]
		if r.Speedup < band[0] || r.Speedup > band[1] {
			t.Errorf("%s Fred-D speedup %.2f outside band %v", r.Workload, r.Speedup, band)
		}
	}
}

func TestFigure11aAggregates(t *testing.T) {
	sum, _ := NewSession().Figure11a()
	// Paper: 1.63× average speedup, 4.22× exposed-comm improvement.
	if sum.AvgSpeedup < 1.45 || sum.AvgSpeedup > 1.85 {
		t.Errorf("Figure 11(a) avg speedup = %.2f, paper 1.63", sum.AvgSpeedup)
	}
	if sum.AvgExposedImprovement < 3.4 || sum.AvgExposedImprovement > 5.2 {
		t.Errorf("Figure 11(a) exposed improvement = %.2f, paper 4.22", sum.AvgExposedImprovement)
	}
	if sum.MostComputeEfficient != (parallelism.Strategy{MP: 20, DP: 1, PP: 1}) {
		t.Errorf("most compute-efficient = %v, paper says MP(20)-DP(1)-PP(1)", sum.MostComputeEfficient)
	}
	for _, r := range sum.Rows {
		if r.Speedup < 1 {
			t.Errorf("Fred-D slower than baseline for %v (%.2f)", r.Strategy, r.Speedup)
		}
	}
}

func TestFigure11bAllStrategiesImprove(t *testing.T) {
	sum, _ := NewSession().Figure11b()
	if sum.AvgSpeedup < 1.3 {
		t.Errorf("Figure 11(b) avg speedup = %.2f", sum.AvgSpeedup)
	}
	for _, r := range sum.Rows {
		if r.Speedup < 1 {
			t.Errorf("Fred-D slower for %v", r.Strategy)
		}
	}
}

func TestMeshIOStudyLaw(t *testing.T) {
	rows, _ := NewSession().MeshIOStudy()
	for _, r := range rows {
		if r.W == r.H {
			if r.Overlap != 2*r.W-1 {
				t.Errorf("%dx%d overlap = %d, want 2N-1", r.W, r.H, r.Overlap)
			}
		}
		// Simulated utilization must match the analytic law tightly.
		if d := r.Simulated - r.Utilization; d > 0.02 || d < -0.02 {
			t.Errorf("%dx%d simulated %.3f vs analytic %.3f", r.W, r.H, r.Simulated, r.Utilization)
		}
	}
}

func TestPlacementStudyTradeoff(t *testing.T) {
	rows, _ := NewSession().PlacementStudy()
	times := map[string]float64{}
	for _, r := range rows {
		times[r.Placement+"/"+r.Dim.String()] = r.Time
	}
	// MP must be faster under the MP-first placement than DP-first.
	if times["mesh MP-first (Fig 5a)/MP"] >= times["mesh DP-first (Fig 5b)/MP"] {
		t.Errorf("MP-first placement does not favour MP: %v", times)
	}
	// FRED beats both mesh placements on every dimension.
	for _, dim := range []string{"MP", "DP", "PP"} {
		fred := times["Fred-D consecutive/"+dim]
		for _, mesh := range []string{"mesh MP-first (Fig 5a)/", "mesh DP-first (Fig 5b)/"} {
			if fred >= times[mesh+dim] {
				t.Errorf("FRED %s (%g) not faster than %s (%g)", dim, fred, mesh+dim, times[mesh+dim])
			}
		}
	}
}

func TestHWTablesRender(t *testing.T) {
	tbls := HWTables()
	if len(tbls) != 3 {
		t.Fatalf("%d tables", len(tbls))
	}
	joined := tbls[0].String() + tbls[1].String() + tbls[2].String()
	for _, want := range []string{"15 kW", "25195 mm²", "Fred-D", "1314 mm²"} {
		if !strings.Contains(joined, want) {
			t.Errorf("tables missing %q", want)
		}
	}
}

func TestMiddleStageAblationClaims(t *testing.T) {
	rows, _ := NewSession().MiddleStageAblation()
	get := func(m int, placement string) float64 {
		for _, r := range rows {
			if r.M == m && r.Placement == placement {
				return r.SuccessRate
			}
		}
		t.Fatalf("missing row m=%d %s", m, placement)
		return 0
	}
	// Section 5.3: consecutive placement never conflicts (any m here);
	// random placement at m=2 conflicts substantially.
	for _, m := range []int{2, 3, 4} {
		if get(m, "consecutive") != 1.0 {
			t.Errorf("m=%d consecutive success %.2f, want 1.0", m, get(m, "consecutive"))
		}
	}
	if get(2, "random") > 0.9 {
		t.Errorf("m=2 random success %.2f; expected visible conflicts", get(2, "random"))
	}
	if get(3, "random") <= get(2, "random") {
		t.Error("raising m must raise routing success")
	}
}

func TestRingDirectionAblation2x(t *testing.T) {
	rows, _ := NewSession().RingDirectionAblation()
	for _, r := range rows {
		if r.Group < 10 {
			continue
		}
		gain := r.Unidirectional / r.Bidirectional
		if gain < 1.9 || gain > 2.1 {
			t.Errorf("group %d: bidirectional gain %.2f, want ≈ 2", r.Group, gain)
		}
	}
}

func TestGradBucketAblationMonotone(t *testing.T) {
	rows, _ := NewSession().GradBucketAblation()
	for i := 1; i < len(rows); i++ {
		if rows[i].ExposedDP > rows[i-1].ExposedDP {
			t.Errorf("exposed DP rose from %g to %g at %d buckets",
				rows[i-1].ExposedDP, rows[i].ExposedDP, rows[i].Buckets)
		}
	}
}

func TestBisectionSweepSaturates(t *testing.T) {
	rows, _ := NewSession().BisectionSweep()
	if rows[0].Total <= rows[len(rows)-1].Total {
		t.Error("more bisection must not hurt")
	}
	// The last doubling (12 → 24 TB/s) must be within 1%: saturation.
	last, prev := rows[len(rows)-1].Total, rows[len(rows)-2].Total
	if (prev-last)/prev > 0.01 {
		t.Errorf("no saturation: 12 TB/s %g vs 24 TB/s %g", prev, last)
	}
}

func TestMultiWaferStudyGain(t *testing.T) {
	rows, _ := NewSession().MultiWaferStudy()
	for _, r := range rows {
		if r.Hierarchical >= r.Naive {
			t.Errorf("%d wafers: hierarchical (%g) not faster than naive (%g)",
				r.Wafers, r.Hierarchical, r.Naive)
		}
	}
}

func TestRunTrainingMatchesDefaultStrategy(t *testing.T) {
	m := workload.ResNet152()
	r, err := NewSession().RunTraining(Baseline, m, defaultStrategy(m), 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total <= 0 {
		t.Fatal("empty report")
	}
	if r.Config.Strategy != (parallelism.Strategy{MP: 1, DP: 20, PP: 1}) {
		t.Fatalf("strategy %v", r.Config.Strategy)
	}
}

func TestEPStudyMeshCongestion(t *testing.T) {
	rows, _ := NewSession().EPStudy()
	if len(rows) < 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.FredTime >= r.MeshTime {
			t.Errorf("%s: Fred-D (%g) not faster than mesh (%g)", r.Name, r.FredTime, r.MeshTime)
		}
	}
	// Adding the EP dimension to MP(2)-DP(*) raises mesh congestion.
	var base2d, with4d float64
	for _, r := range rows {
		if r.Name == "MP(2)-DP(10)-PP(1)" {
			base2d = r.MeshTime
		}
		if r.Name == "MP(2)-EP(2)-DP(5)-PP(1)" {
			with4d = r.MeshTime
		}
	}
	if with4d <= base2d {
		t.Errorf("EP dimension did not raise mesh congestion: %g vs %g", with4d, base2d)
	}
}

func TestNonAlignedStudyClaims(t *testing.T) {
	res, _ := NewSession().NonAlignedStudy()
	// Figure 6(a): the rigid mesh forces multi-hop logical-ring edges.
	if res.MaxRingHop < 2 {
		t.Errorf("max ring hop = %d, want ≥ 2", res.MaxRingHop)
	}
	// Figure 6(b): concurrent DP groups congest each other.
	if res.DPConcurrentTime <= res.DPSoloTime*1.05 {
		t.Errorf("no congestion: solo %g vs concurrent %g", res.DPSoloTime, res.DPConcurrentTime)
	}
	// FRED serves the same pattern far faster.
	if res.FredTime*2 > res.DPConcurrentTime {
		t.Errorf("Fred-D (%g) should be well below the congested mesh (%g)",
			res.FredTime, res.DPConcurrentTime)
	}
	if res.Heatmap == "" {
		t.Error("empty heatmap")
	}
}

func TestScalabilityStudyGapGrows(t *testing.T) {
	rows, _ := NewSession().ScalabilityStudy()
	if len(rows) != 3 {
		t.Fatalf("%d rows", len(rows))
	}
	for i, r := range rows {
		if r.FredTime >= r.MeshTime {
			t.Errorf("%d NPUs: FRED (%g) not faster than mesh (%g)", r.NPUs, r.FredTime, r.MeshTime)
		}
		if r.FredIOUtil != 1 {
			t.Errorf("%d NPUs: FRED I/O util %g, want 1", r.NPUs, r.FredIOUtil)
		}
		if i > 0 && r.MeshIOUtil >= rows[i-1].MeshIOUtil {
			t.Errorf("mesh I/O utilization should fall with size: %v", rows)
		}
	}
	if rows[len(rows)-1].Gain <= rows[0].Gain {
		t.Errorf("FRED's collective gain should grow with wafer size: %v vs %v",
			rows[len(rows)-1].Gain, rows[0].Gain)
	}
}

func TestInferenceStudyFredWins(t *testing.T) {
	rows, _ := NewSession().InferenceStudy()
	byMP := map[int]map[System]float64{}
	for _, r := range rows {
		if byMP[r.MP] == nil {
			byMP[r.MP] = map[System]float64{}
		}
		byMP[r.MP][r.System] = r.TokenLatency
	}
	for mp, m := range byMP {
		if m[FredD] >= m[Baseline] {
			t.Errorf("MP(%d): Fred-D decode latency %g not below mesh %g", mp, m[FredD], m[Baseline])
		}
	}
	// The advantage grows from small to wafer-wide MP groups (the ring
	// step count dominates small-message all-reduces).
	gain2 := byMP[2][Baseline] / byMP[2][FredD]
	gain20 := byMP[20][Baseline] / byMP[20][FredD]
	if gain20 <= gain2 {
		t.Errorf("decode gain should grow with MP: MP(2) %.2f vs MP(20) %.2f", gain2, gain20)
	}
}

func TestPlacementSearchAblation(t *testing.T) {
	rows, _ := NewSession().PlacementSearchAblation()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Searched placements never cost more than the defaults.
	for i := 0; i+1 < len(rows); i += 2 {
		if rows[i+1].Cost > rows[i].Cost {
			t.Errorf("%v: searched cost %g above default %g", rows[i].Strategy, rows[i+1].Cost, rows[i].Cost)
		}
	}
}

func TestCrossoverStudy(t *testing.T) {
	rows, _ := NewSession().CrossoverStudy()
	var treeWins64, ringWinsLarge bool
	for _, r := range rows {
		if r.FredTime >= r.RingTime && r.Bytes > 8192 {
			t.Errorf("in-network (%g) not fastest at %g bytes", r.FredTime, r.Bytes)
		}
		if r.Wafer == 64 && r.Bytes <= 64<<10 && r.TreeTime < r.RingTime {
			treeWins64 = true
		}
		if r.Bytes >= 16<<20 && r.RingTime < r.TreeTime {
			ringWinsLarge = true
		}
	}
	if !treeWins64 {
		t.Error("tree never wins the small-message regime at 64 NPUs (Section 2.2)")
	}
	if !ringWinsLarge {
		t.Error("ring never wins the bandwidth-bound regime")
	}
}

func TestScheduleAblation(t *testing.T) {
	rows, _ := NewSession().ScheduleAblation()
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Per strategy: 1F1B never slower, and wherever GPipe recomputes
	// while 1F1B fits, 1F1B must win outright.
	for i := 0; i+1 < len(rows); i += 2 {
		g, o := rows[i], rows[i+1]
		if o.Total > g.Total*1.02 {
			t.Errorf("%v: 1F1B (%g) slower than GPipe (%g)", g.Strategy, o.Total, g.Total)
		}
		if g.Recompute && !o.Recompute && o.Total >= g.Total {
			t.Errorf("%v: 1F1B fit but did not win", g.Strategy)
		}
	}
}

func TestBatchSensitivityDecline(t *testing.T) {
	rows, _ := NewSession().BatchSensitivity()
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	if rows[0].Speedup <= rows[len(rows)-1].Speedup {
		t.Errorf("speedup should decline with batch: %v → %v",
			rows[0].Speedup, rows[len(rows)-1].Speedup)
	}
	for _, r := range rows {
		if r.Speedup <= 1 {
			t.Errorf("batch %d: no speedup (%g)", r.PerReplica, r.Speedup)
		}
	}
}

func TestCommProfileRenders(t *testing.T) {
	tbl := NewSession().CommProfile(FredD)
	out := tbl.String()
	for _, want := range []string{"ResNet-152", "Transformer-17B", "GPT-3", "MP", "DP"} {
		if !strings.Contains(out, want) {
			t.Errorf("profile missing %q", want)
		}
	}
}

func TestPacketValidationAgreement(t *testing.T) {
	rows, _ := NewSession().PacketValidation()
	for _, r := range rows {
		diff := r.FlowRatio - r.FlitRatio
		if diff < 0 {
			diff = -diff
		}
		if diff/r.FlowRatio > 0.25 {
			t.Errorf("%s: flow %.2fx vs flit %.2fx diverge", r.Pattern, r.FlowRatio, r.FlitRatio)
		}
	}
}

func TestFigure1Rendering(t *testing.T) {
	tbl := Figure1(parallelism.Strategy{MP: 4, DP: 3, PP: 2})
	out := tbl.String()
	// The paper's example: workers 000,100,200,300 form the first MP
	// group; eight DP groups; twelve PP groups.
	for _, want := range []string{"000,100,200,300", "8", "12"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 missing %q:\n%s", want, out)
		}
	}
}

func TestTrainingHeatmap(t *testing.T) {
	heat, tbl := NewSession().TrainingHeatmap(parallelism.Strategy{MP: 3, DP: 3, PP: 2})
	if !strings.Contains(heat, "[ 0]") || !strings.Contains(heat, "[19]") {
		t.Fatalf("heatmap malformed:\n%s", heat)
	}
	if tbl == nil || len(tbl.Rows) != 1 {
		t.Fatal("table malformed")
	}
}

func TestSummaryHeadlines(t *testing.T) {
	rows, tbl := NewSession().Summary()
	if len(rows) < 10 {
		t.Fatalf("%d rows", len(rows))
	}
	deviations := 0
	for _, r := range rows {
		if !r.Match() {
			deviations++
		}
	}
	// Exactly the one documented deviation (Transformer-1T streaming
	// contention) is tolerated.
	if deviations > 1 {
		t.Errorf("%d headline deviations, expected ≤ 1:\n%s", deviations, tbl)
	}
}
