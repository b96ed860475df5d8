package experiments

import (
	"fmt"
	"math/rand"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/fred"
	"github.com/wafernet/fred/internal/multiwafer"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/placement"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// MiddleStageRow is one cell of the middle-stage/placement ablation.
type MiddleStageRow struct {
	M           int
	Placement   string
	SuccessRate float64
}

// MiddleStageAblation quantifies Section 5.3's design choices: the
// probability that ALL concurrent all-reduce flows of a random 3D
// strategy route conflict-free on a Fred_m(12) leaf switch, for
// m = 2, 3, 4, under FRED's consecutive placement versus a random
// placement. The paper picks m = 3 + consecutive placement because
// that combination never conflicts.
//
// The trials draw from one seeded RNG stream shared across all cells.
// The draws never depend on routing outcomes, so every trial's flows
// are drawn up front in the stream's order (m, then placement, then
// trial), and the six (m, placement) cells then route in parallel,
// each on an interconnect of its own. One cell per (m, placement).
func (s *Session) MiddleStageAblation() ([]MiddleStageRow, *report.Table) {
	const ports = 12
	const trials = 300
	rng := rand.New(rand.NewSource(42))
	strategies := parallelism.EnumerateExact(ports)
	// Each strategy's MP groups, built once rather than per trial.
	mpGroups := make([][][]int, len(strategies))
	for i, strat := range strategies {
		mpGroups[i] = strat.MPGroups()
	}

	type cell struct {
		m      int
		name   string
		trials [][]fred.Flow // concurrent flows per trial; nil routes trivially
	}
	draw := func(random bool) [][]fred.Flow {
		out := make([][]fred.Flow, trials)
		for trial := range out {
			groups := mpGroups[rng.Intn(len(strategies))]
			perm := make([]int, ports)
			for i := range perm {
				perm[i] = i
			}
			if random {
				rng.Shuffle(ports, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
			}
			// Concurrent flows: one all-reduce per MP group (the
			// simultaneous phase FRED must route).
			for _, g := range groups {
				if len(g) < 2 {
					continue
				}
				ports := make([]int, len(g))
				for i, r := range g {
					ports[i] = perm[r]
				}
				out[trial] = append(out[trial], fred.AllReduce(ports))
			}
		}
		return out
	}
	var cells []cell
	for _, m := range []int{2, 3, 4} {
		for _, random := range []bool{false, true} {
			name := "consecutive"
			if random {
				name = "random"
			}
			cells = append(cells, cell{m: m, name: name, trials: draw(random)})
		}
	}

	rows := make([]MiddleStageRow, len(cells))
	s.forEach("MiddleStageAblation", len(cells), func(i int, cs *Session) {
		c := cells[i]
		ic := fred.NewInterconnect(c.m, ports)
		ok := 0
		for _, flows := range c.trials {
			if len(flows) == 0 {
				ok++
				continue
			}
			if _, err := ic.Route(flows); err == nil {
				ok++
			}
		}
		rows[i] = MiddleStageRow{M: c.m, Placement: c.name, SuccessRate: float64(ok) / trials}
	})

	tbl := &report.Table{
		Title:  "Ablation: middle stages (m) x device placement — routing success of concurrent MP all-reduces on Fred_m(12)",
		Header: []string{"m", "placement", "success"},
	}
	for _, r := range rows {
		tbl.AddRow(r.M, r.Placement, report.FormatFraction(r.SuccessRate))
	}
	tbl.AddNote("Section 5.3: m=3 with consecutive placement prevents routing conflicts for 3D parallelism")
	return rows, tbl
}

// RingDirectionRow compares uni- and bidirectional rings.
type RingDirectionRow struct {
	Group                         int
	Unidirectional, Bidirectional float64
}

// RingDirectionAblation measures the "two concurrent chunks in reverse
// direction" optimization of Section 7.2 on the baseline mesh: the
// bidirectional ring should be ~2× faster for wafer-wide groups. One
// cell per group size.
func (s *Session) RingDirectionAblation() ([]RingDirectionRow, *report.Table) {
	sizes := []int{4, 10, 20}
	rows := make([]RingDirectionRow, len(sizes))
	s.forEach("RingDirectionAblation", len(sizes), func(i int, cs *Session) {
		n := sizes[i]
		group := make([]int, n)
		for j := range group {
			group[j] = j
		}
		ringTime := func(bidirectional bool) float64 {
			m := cs.Build(Baseline).(*topology.Mesh)
			order := collective.SnakeOrder(m, group)
			if n == m.NPUCount() {
				order = collective.HamiltonianRing(m)
			}
			return collective.RunToCompletion(m.Network(),
				collective.RingAllReduce(m, order, 1e9, bidirectional))
		}
		rows[i] = RingDirectionRow{Group: n, Unidirectional: ringTime(false), Bidirectional: ringTime(true)}
	})

	tbl := &report.Table{
		Title:  "Ablation: ring direction on baseline mesh (1 GB all-reduce)",
		Header: []string{"group", "unidirectional", "bidirectional", "gain"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Group, r.Unidirectional, r.Bidirectional, report.FormatX(r.Unidirectional/r.Bidirectional))
	}
	return rows, tbl
}

// GradBucketRow is one point of the DP-overlap ablation.
type GradBucketRow struct {
	Buckets   int
	ExposedDP float64
	Total     float64
}

// GradBucketAblation sweeps the DP gradient-bucket count on ResNet-152
// (baseline mesh): more buckets overlap DP synchronisation with the
// backward tail, shrinking exposed DP below the paper's unbucketed
// model. One cell per bucket count.
func (s *Session) GradBucketAblation() ([]GradBucketRow, *report.Table) {
	buckets := []int{1, 2, 4, 8, 16}
	rows := make([]GradBucketRow, len(buckets))
	s.forEach("GradBucketAblation", len(buckets), func(i int, cs *Session) {
		nb := buckets[i]
		r := mustTrain(training.Config{
			Wafer:               cs.Build(Baseline),
			Model:               workload.ResNet152(),
			Strategy:            parallelism.Strategy{MP: 1, DP: 20, PP: 1},
			MinibatchPerReplica: 16,
			GradBuckets:         nb,
		})
		rows[i] = GradBucketRow{Buckets: nb, ExposedDP: r.Breakdown.DP, Total: r.Total}
	})

	tbl := &report.Table{
		Title:  "Ablation: DP gradient buckets, ResNet-152 on baseline mesh",
		Header: []string{"buckets", "exposed DP", "total"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Buckets, r.ExposedDP, r.Total)
	}
	return rows, tbl
}

// BisectionRow is one point of the L1-L2 bandwidth sweep.
type BisectionRow struct {
	L1L2BW    float64
	Bisection float64
	Total     float64
}

// BisectionSweep varies the FRED fabric's L1↔L2 bandwidth between the
// Fred-A/B point (1.5 TB/s) and the Fred-C/D point (12 TB/s) and
// reports Transformer-17B iteration time with in-network collectives —
// showing where extra bisection stops paying. One cell per bandwidth
// point.
func (s *Session) BisectionSweep() ([]BisectionRow, *report.Table) {
	bws := []float64{1.5e12, 3e12, 6e12, 12e12, 24e12}
	rows := make([]BisectionRow, len(bws))
	s.forEach("BisectionSweep", len(bws), func(i int, cs *Session) {
		cfg := topology.FredVariantConfig(topology.FredD)
		cfg.LevelBW[1] = bws[i]
		w := topology.NewFredFabric(netOf(), cfg)
		r := mustTrain(training.Config{
			Wafer:               w,
			Model:               workload.Transformer17B(),
			Strategy:            parallelism.Strategy{MP: 3, DP: 3, PP: 2},
			MinibatchPerReplica: 16,
		})
		rows[i] = BisectionRow{L1L2BW: bws[i], Bisection: w.BisectionBW(), Total: r.Total}
	})

	tbl := &report.Table{
		Title:  "Ablation: L1-L2 bandwidth sweep (Transformer-17B, in-network)",
		Header: []string{"L1-L2 BW", "bisection", "iteration"},
	}
	for _, r := range rows {
		tbl.AddRow(report.FormatBW(r.L1L2BW), report.FormatBW(r.Bisection), r.Total)
	}
	return rows, tbl
}

// MultiWaferRow compares global all-reduce designs.
type MultiWaferRow struct {
	Wafers       int
	Hierarchical float64
	Naive        float64
}

// MultiWaferStudy runs the Section 8.3 inter-wafer discussion: the
// hierarchical boundary-parallel global all-reduce versus the naive
// single-leader exchange, over wafer counts. One cell per wafer count.
func (s *Session) MultiWaferStudy() ([]MultiWaferRow, *report.Table) {
	counts := []int{2, 4, 8}
	rows := make([]MultiWaferRow, len(counts))
	s.forEach("MultiWaferStudy", len(counts), func(i int, cs *Session) {
		cfg := multiwafer.DefaultConfig()
		cfg.Wafers = counts[i]
		sh := multiwafer.New(cfg)
		hier := sh.Run(sh.GlobalAllReduce(10e9))
		sn := multiwafer.New(cfg)
		naive := sn.Run(sn.NaiveAllReduce(10e9))
		rows[i] = MultiWaferRow{Wafers: counts[i], Hierarchical: hier, Naive: naive}
	})

	tbl := &report.Table{
		Title:  "Extension: multi-wafer global all-reduce (10 GB, Fred-D wafers, 18 x 128 GB/s ports)",
		Header: []string{"wafers", "hierarchical", "naive leader", "gain"},
	}
	for _, r := range rows {
		tbl.AddRow(r.Wafers, r.Hierarchical, r.Naive, report.FormatX(r.Naive/r.Hierarchical))
	}
	tbl.AddNote("the hierarchical form spreads the inter-wafer exchange over all boundary NPUs (Section 8.3)")
	return rows, tbl
}

// netOf builds a fresh network on its own scheduler.
func netOf() *netsim.Network { return netsim.New(sim.NewScheduler()) }

// PlacementSearchRow compares the default and searched placements.
type PlacementSearchRow struct {
	Strategy  parallelism.Strategy
	Placement string
	Cost      float64
	Time      float64 // concurrent all-dimension comm makespan (1 GB)
}

// PlacementSearchAblation runs Section 5.3's "intelligent device
// placement" on the baseline mesh: random-restart hill climbing over
// the congestion cost, compared with the default MP-first placement,
// for an aligned and a non-aligned strategy. Search softens mesh
// congestion but cannot remove the Section 3.2.2 trade-off; FRED's
// consecutive placement needs no search at all. One cell per strategy
// (the search itself is seeded and deterministic per cell).
func (s *Session) PlacementSearchAblation() ([]PlacementSearchRow, *report.Table) {
	strategies := []parallelism.Strategy{
		{MP: 2, DP: 5, PP: 2},
		{MP: 5, DP: 3, PP: 1}, // non-aligned (Figure 6)
	}
	rows := make([]PlacementSearchRow, 2*len(strategies))
	s.forEach("PlacementSearchAblation", len(strategies), func(i int, cs *Session) {
		strat := strategies[i]
		mp, dp := strat.MPGroups(), strat.DPGroups()
		measure := func(name string, p placement.Placement) PlacementSearchRow {
			w := cs.Build(Baseline)
			cost := placement.Cost(w, strat, p)
			comm := collective.NewComm(w)
			var scheds []collective.Schedule
			for _, g := range mp {
				if len(g) > 1 {
					scheds = append(scheds, comm.AllReduce(p.NPUs(g), 1e9))
				}
			}
			for _, g := range dp {
				if len(g) > 1 {
					scheds = append(scheds, comm.AllReduce(p.NPUs(g), 1e9))
				}
			}
			max := maxOf(collective.RunConcurrently(w.Network(), scheds))
			return PlacementSearchRow{Strategy: strat, Placement: name, Cost: cost, Time: max}
		}
		rows[2*i] = measure("default", placement.MeshDefault(strat))
		opt, _ := placement.Optimize(cs.Build(Baseline), strat, 6, 24, 11)
		rows[2*i+1] = measure("searched", opt)
	})

	tbl := &report.Table{
		Title:  "Ablation: intelligent device placement on the baseline mesh",
		Header: []string{"strategy", "placement", "cost", "concurrent comm (1GB)"},
	}
	for _, row := range rows {
		tbl.AddRow(row.Strategy.String(), row.Placement, fmt.Sprintf("%.0f", row.Cost), row.Time)
	}
	tbl.AddNote("search narrows mesh congestion but the Section 3.2.2 trade-off remains; FRED needs no search")
	return rows, tbl
}

// ScheduleRow compares pipeline schedules.
type ScheduleRow struct {
	Strategy  parallelism.Strategy
	Schedule  string
	Total     float64
	Recompute bool
}

// ScheduleAblation contrasts the paper's GPipe pipeline with 1F1B on
// Fred-D: the schedules move identical work, but 1F1B's bounded
// in-flight microbatches can duck under the HBM limit where GPipe's
// flush forces activation recomputation. One cell per
// (strategy, schedule) pair.
func (s *Session) ScheduleAblation() ([]ScheduleRow, *report.Table) {
	strategies := []parallelism.Strategy{
		{MP: 3, DP: 3, PP: 2},
		{MP: 1, DP: 2, PP: 4},
		{MP: 1, DP: 2, PP: 10},
	}
	schedules := []training.PipelineSchedule{training.ScheduleGPipe, training.Schedule1F1B}
	rows := make([]ScheduleRow, len(strategies)*len(schedules))
	s.forEach("ScheduleAblation", len(rows), func(i int, cs *Session) {
		strat, sched := strategies[i/len(schedules)], schedules[i%len(schedules)]
		r := mustTrain(training.Config{
			Wafer:               cs.Build(FredD),
			Model:               workload.Transformer17B(),
			Strategy:            strat,
			MinibatchPerReplica: 40,
			Schedule:            sched,
		})
		rows[i] = ScheduleRow{Strategy: strat, Schedule: sched.String(), Total: r.Total, Recompute: r.ActivationRecompute}
	})

	tbl := &report.Table{
		Title:  "Ablation: pipeline schedule (GPipe vs 1F1B), Transformer-17B on Fred-D, batch 40/replica",
		Header: []string{"strategy", "schedule", "iteration", "recompute"},
	}
	for _, row := range rows {
		tbl.AddRow(row.Strategy.String(), row.Schedule, row.Total, fmt.Sprint(row.Recompute))
	}
	tbl.AddNote("1F1B keeps at most PP-stage microbatches resident, avoiding GPipe's recompute at deep PP")
	return rows, tbl
}
