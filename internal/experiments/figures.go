package experiments

import (
	"fmt"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// Fig2Row is one bar group of Figure 2: the normalized (per-sample)
// compute and communication overheads of one parallelization strategy
// of Transformer-17B on the baseline mesh.
type Fig2Row struct {
	Strategy  parallelism.Strategy
	Compute   float64 // per-sample compute, seconds
	Comm      float64 // per-sample exposed communication, seconds
	Total     float64 // per-sample total
	Breakdown training.Breakdown
}

// Figure2 regenerates Figure 2: per-strategy normalized compute vs
// communication of Transformer-17B on the 20-NPU 2D mesh, minibatch
// DP×40 (Section 7.3). One cell per strategy.
func (s *Session) Figure2() ([]Fig2Row, *report.Table) {
	strategies := transformerStrategies()
	reports := make([]*training.Report, len(strategies))
	s.forEach("Figure2", len(strategies), func(i int, cs *Session) {
		reports[i] = cs.mustRunTraining(Baseline, workload.Transformer17B(), strategies[i], 40)
	})

	var rows []Fig2Row
	tbl := &report.Table{
		Title:  "Figure 2: Transformer-17B on baseline 2D mesh — normalized overheads",
		Header: []string{"strategy", "compute/sample", "comm/sample", "total/sample"},
	}
	for i, strat := range strategies {
		r := reports[i]
		n := float64(r.Config.Minibatch())
		row := Fig2Row{
			Strategy:  strat,
			Compute:   r.Breakdown.Compute / n,
			Comm:      r.Breakdown.TotalExposed() / n,
			Total:     r.PerSample,
			Breakdown: r.Breakdown,
		}
		rows = append(rows, row)
		tbl.AddRow(strat.String(), row.Compute, row.Comm, row.Total)
	}
	tbl.AddNote("comm overhead can invert compute-efficiency ordering (Section 1)")
	return rows, tbl
}

// Fig9Cell is one bar of Figure 9: the time of one communication phase
// on one system.
type Fig9Cell struct {
	System System
	Phase  string // "MP", "DP", "PP"
	Time   float64
}

// Figure9 regenerates the communication microbenchmarks of Figure 9
// for the two Transformer-17B strategies: a wafer-wide MP all-reduce
// (MP(20)-DP(1)-PP(1)) and the MP/DP/PP phases of MP(2)-DP(5)-PP(2).
// Collective payloads are 1 GB per operation so the bars compare
// bandwidth, as in the paper. One cell per (phase, system) pair.
func (s *Session) Figure9() ([]Fig9Cell, *report.Table) {
	const d = 1e9
	npus := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	phases := []struct {
		name string
		run  func(c *collective.Comm, w topology.Wafer) float64
	}{
		// MP(20)-DP(1)-PP(1): one wafer-wide all-reduce.
		{"MP(20) all-reduce", func(c *collective.Comm, w topology.Wafer) float64 {
			return collective.RunToCompletion(w.Network(), c.AllReduce(npus(20), d))
		}},
		// MP(2)-DP(5)-PP(2) phases under the default placements.
		{"MP(2) all-reduce", func(c *collective.Comm, w topology.Wafer) float64 {
			return collective.RunToCompletion(w.Network(), c.AllReduce([]int{0, 1}, d))
		}},
		{"DP(5) x4 all-reduce", func(c *collective.Comm, w topology.Wafer) float64 {
			var scheds []collective.Schedule
			for r := 0; r < 4; r++ {
				g := make([]int, 5)
				for i := range g {
					g[i] = r + 4*i
				}
				scheds = append(scheds, c.AllReduce(g, d))
			}
			return maxOf(collective.RunConcurrently(w.Network(), scheds))
		}},
		{"PP multicast", func(c *collective.Comm, w topology.Wafer) float64 {
			return collective.RunToCompletion(w.Network(), c.Multicast(0, []int{2, 3}, d))
		}},
	}

	systems := Systems()
	times := make([]float64, len(phases)*len(systems))
	s.forEach("Figure9", len(times), func(i int, cs *Session) {
		phase, sys := phases[i/len(systems)], systems[i%len(systems)]
		w := cs.Build(sys)
		times[i] = phase.run(collective.NewComm(w), w)
	})

	var cells []Fig9Cell
	tbl := &report.Table{
		Title:  "Figure 9: communication microbenchmarks (1 GB collectives)",
		Header: []string{"phase", "Baseline", "Fred-A", "Fred-B", "Fred-C", "Fred-D"},
	}
	for pi, phase := range phases {
		row := []any{phase.name}
		for si, sys := range systems {
			t := times[pi*len(systems)+si]
			cells = append(cells, Fig9Cell{System: sys, Phase: phase.name, Time: t})
			row = append(row, t)
		}
		tbl.AddRow(row...)
	}
	tbl.AddNote("expected effective NPU bandwidth, wafer-wide: base 1.5, Fred-A ~1.8, Fred-B 1.5(half traffic), Fred-C 3, Fred-D 3 TB/s (Section 8.1)")
	return cells, tbl
}

// maxOf returns the maximum of a non-empty completion-time slice (zero
// when empty).
func maxOf(times []float64) float64 {
	max := 0.0
	for _, t := range times {
		if t > max {
			max = t
		}
	}
	return max
}

// Fig10Row is one bar of Figure 10.
type Fig10Row struct {
	Workload string
	System   System
	Report   *training.Report
	Speedup  float64 // vs the baseline of the same workload
}

// Figure10 regenerates the end-to-end training comparison of
// Figure 10: each Table 6 workload under its Table 6 strategy on
// Baseline, Fred-C and Fred-D (plus Fred-A/Fred-B, which the paper
// omits for space but reports as lying between Baseline and Fred-C).
// One cell per (workload, system) pair.
func (s *Session) Figure10(includeAB bool) ([]Fig10Row, *report.Table) {
	systems := []System{Baseline, FredC, FredD}
	if includeAB {
		systems = []System{Baseline, FredA, FredB, FredC, FredD}
	}
	models := workload.Models()
	reports := make([]*training.Report, len(models)*len(systems))
	s.forEach("Figure10", len(reports), func(i int, cs *Session) {
		// Each cell constructs its own model so no state whatsoever is
		// shared between concurrent simulations.
		m := workload.Models()[i/len(systems)]
		reports[i] = cs.mustRunTrainingBlamed(systems[i%len(systems)], m, defaultStrategy(m), 16)
	})

	var rows []Fig10Row
	tbl := &report.Table{
		Title:  "Figure 10: end-to-end training time per iteration (minibatch DP x 16)",
		Header: []string{"workload", "system", "total", "compute", "load", "MP", "DP", "PP", "stream", "comm-ser", "comm-cont", "speedup"},
	}
	for mi, m := range models {
		var base float64
		for si, sys := range systems {
			r := reports[mi*len(systems)+si]
			if sys == Baseline {
				base = r.Total
			}
			row := Fig10Row{Workload: m.Name, System: sys, Report: r, Speedup: base / r.Total}
			rows = append(rows, row)
			b := r.Breakdown
			commSer, commCont := 0.0, 0.0
			if r.CritPath != nil {
				commSer, commCont = r.CritPath.CommSerial, r.CritPath.CommContention
			}
			tbl.AddRow(m.Name, string(sys), r.Total, b.Compute, b.InputLoad, b.MP, b.DP, b.PP, b.Stream,
				commSer, commCont, report.FormatX(row.Speedup))
		}
	}
	tbl.AddNote("paper speedups (Fred-C, Fred-D): ResNet-152 1.41/1.76, T-17B 1.75/1.87, GPT-3 1.34/1.34, T-1T 1.4/1.4")
	tbl.AddNote("comm-ser/comm-cont: critical-path blame — FRED's gain comes from shrinking both (higher-bandwidth trees serialize less; unified fabric contends less)")
	return rows, tbl
}

// Fig11Row is one strategy of Figure 11: baseline vs Fred-D.
type Fig11Row struct {
	Strategy     parallelism.Strategy
	Base, FredD  *training.Report
	Speedup      float64
	ExposedRatio float64 // baseline exposed comm / Fred-D exposed comm
}

// Fig11Summary aggregates a Figure 11 sweep.
type Fig11Summary struct {
	Rows []Fig11Row
	// AvgSpeedup is the ratio of average per-sample times (the Avg
	// bars of Figure 11).
	AvgSpeedup float64
	// AvgExposedImprovement is the ratio of average per-sample exposed
	// communication times (4.22× / 3.92× in Section 8.3).
	AvgExposedImprovement float64
	// BestBase / BestFredD are the strategies with the lowest
	// per-sample time on each system (the crossover discussion).
	BestBase, BestFredD parallelism.Strategy
	// MostComputeEfficient has the lowest per-sample compute.
	MostComputeEfficient parallelism.Strategy
}

// figure11 runs one Figure 11 sweep, one cell per strategy (each cell
// simulates the strategy on both the baseline and Fred-D).
func (s *Session) figure11(mk func() *workload.Model, strategies []parallelism.Strategy, perReplica int, title string) (*Fig11Summary, *report.Table) {
	type pair struct{ base, fredD *training.Report }
	results := make([]pair, len(strategies))
	s.forEach("Figure11", len(strategies), func(i int, cs *Session) {
		results[i].base = cs.mustRunTraining(Baseline, mk(), strategies[i], perReplica)
		results[i].fredD = cs.mustRunTraining(FredD, mk(), strategies[i], perReplica)
	})

	sum := &Fig11Summary{}
	tbl := &report.Table{
		Title:  title,
		Header: []string{"strategy", "base/sample", "fredD/sample", "speedup", "exposed base", "exposed fredD"},
	}
	var baseTotal, fredTotal, baseExp, fredExp float64
	bestBase, bestFred, bestCompute := 1e300, 1e300, 1e300
	for i, strat := range strategies {
		base, fd := results[i].base, results[i].fredD
		n := float64(base.Config.Minibatch())
		row := Fig11Row{
			Strategy: strat,
			Base:     base,
			FredD:    fd,
			Speedup:  base.PerSample / fd.PerSample,
		}
		be, fe := base.Breakdown.TotalExposed()/n, fd.Breakdown.TotalExposed()/n
		if fe > 0 {
			row.ExposedRatio = be / fe
		}
		sum.Rows = append(sum.Rows, row)
		baseTotal += base.PerSample
		fredTotal += fd.PerSample
		baseExp += be
		fredExp += fe
		if base.PerSample < bestBase {
			bestBase = base.PerSample
			sum.BestBase = strat
		}
		if fd.PerSample < bestFred {
			bestFred = fd.PerSample
			sum.BestFredD = strat
		}
		if c := base.Breakdown.Compute / n; c < bestCompute {
			bestCompute = c
			sum.MostComputeEfficient = strat
		}
		tbl.AddRow(strat.String(), base.PerSample, fd.PerSample, report.FormatX(row.Speedup),
			report.FormatSeconds(be), report.FormatSeconds(fe))
	}
	sum.AvgSpeedup = baseTotal / fredTotal
	if fredExp > 0 {
		sum.AvgExposedImprovement = baseExp / fredExp
	}
	tbl.AddRow("Avg", baseTotal/float64(len(strategies)), fredTotal/float64(len(strategies)),
		report.FormatX(sum.AvgSpeedup), report.FormatSeconds(baseExp/float64(len(strategies))),
		report.FormatSeconds(fredExp/float64(len(strategies))))
	tbl.AddNote("avg exposed-comm improvement: %s", report.FormatX(sum.AvgExposedImprovement))
	tbl.AddNote("best strategy: baseline %v, Fred-D %v; most compute-efficient %v",
		sum.BestBase, sum.BestFredD, sum.MostComputeEfficient)
	return sum, tbl
}

// Figure11a regenerates Figure 11(a): Transformer-17B across
// parallelization strategies, baseline vs Fred-D, minibatch DP×40.
// Paper: 4.22× exposed-comm improvement, 1.63× average speedup.
func (s *Session) Figure11a() (*Fig11Summary, *report.Table) {
	return s.figure11(workload.Transformer17B, transformerStrategies(), 40,
		"Figure 11(a): Transformer-17B, baseline vs Fred-D across strategies")
}

// Figure11b regenerates Figure 11(b): Transformer-1T across
// strategies. Paper: 3.92× exposed-comm improvement, 1.44× average
// speedup.
func (s *Session) Figure11b() (*Fig11Summary, *report.Table) {
	return s.figure11(workload.Transformer1T, t1tStrategies(), 16,
		"Figure 11(b): Transformer-1T, baseline vs Fred-D across strategies")
}

// MeshIORow is one row of the Section 3.2.1 hotspot study.
type MeshIORow struct {
	W, H        int
	Overlap     int     // max broadcast trees on one link
	RequiredBW  float64 // overlap × channel rate
	Utilization float64 // analytic achievable fraction of line rate
	Simulated   float64 // utilization measured by the flow simulator
}

// MeshIOStudy regenerates the Figure 4 / Section 3.2.1 analysis: the
// I/O broadcast hotspot law (2N−1)·P and the resulting line-rate
// utilization, both analytically and measured on the flow simulator.
// One cell per mesh size.
func (s *Session) MeshIOStudy() ([]MeshIORow, *report.Table) {
	sizes := [][2]int{{4, 4}, {5, 4}, {5, 5}, {6, 6}, {8, 8}}
	rows := make([]MeshIORow, len(sizes))
	s.forEach("MeshIOStudy", len(sizes), func(i int, cs *Session) {
		dims := sizes[i]
		cfg := topology.DefaultMeshConfig()
		cfg.W, cfg.H = dims[0], dims[1]
		mesh := topology.NewMesh(netsim.New(sim.NewScheduler()), cfg)
		row := MeshIORow{
			W: dims[0], H: dims[1],
			Overlap:     mesh.MaxIOChannelOverlap(),
			Utilization: mesh.StreamUtilization(),
		}
		row.RequiredBW = float64(row.Overlap) * cfg.IOCBW
		row.Simulated = simulateStreamUtil(mesh)
		rows[i] = row
	})

	tbl := &report.Table{
		Title:  "Section 3.2.1: mesh I/O broadcast hotspot ((2N-1)P law)",
		Header: []string{"mesh", "channels", "max overlap", "required link BW", "utilization", "simulated"},
	}
	for _, row := range rows {
		tbl.AddRow(fmt.Sprintf("%dx%d", row.W, row.H), 2*(row.W+row.H), row.Overlap,
			report.FormatBW(row.RequiredBW), report.FormatFraction(row.Utilization),
			report.FormatFraction(row.Simulated))
	}
	tbl.AddNote("paper: 5-wide mesh needs (2*5-1)*128 GB/s = 1152 GB/s > 750 GB/s links -> 0.65x line rate")
	return rows, tbl
}

// simulateStreamUtil measures the slowest concurrent broadcast stream
// through the flow simulator, as a fraction of channel line rate.
func simulateStreamUtil(m *topology.Mesh) float64 {
	net := m.Network()
	var flows []*netsim.Flow
	for ioc := 0; ioc < m.IOCCount(); ioc++ {
		flows = append(flows, net.StartFlow(netsim.FlowSpec{
			Links: m.IOCLoadTree(ioc), Bytes: 1e18, Latency: 0,
		}))
	}
	net.Scheduler().RunUntil(0)
	minRate := 1e300
	for _, f := range flows {
		if r := f.Rate(); r < minRate {
			minRate = r
		}
	}
	for _, f := range flows {
		f.Cancel()
	}
	util := minRate / m.IOCBW()
	if util > 1 {
		util = 1
	}
	return util
}

// BatchRow is one minibatch size of the batch-sensitivity study.
type BatchRow struct {
	PerReplica int
	Base       *training.Report
	FredD      *training.Report
	Speedup    float64
}

// BatchSensitivity sweeps the per-replica minibatch for Transformer-17B
// under its Table 6 strategy: larger batches amortize the (mostly
// batch-independent) DP gradient sync and grow the MP volume linearly
// with compute, so FRED's advantage declines with batch — the
// flip side of the paper's observation that communication overhead
// gates small-batch scaling. One cell per batch size.
func (s *Session) BatchSensitivity() ([]BatchRow, *report.Table) {
	strat := parallelism.Strategy{MP: 3, DP: 3, PP: 2}
	batches := []int{8, 16, 40, 80}
	rows := make([]BatchRow, len(batches))
	s.forEach("BatchSensitivity", len(batches), func(i int, cs *Session) {
		b := batches[i]
		base := cs.mustRunTraining(Baseline, workload.Transformer17B(), strat, b)
		fd := cs.mustRunTraining(FredD, workload.Transformer17B(), strat, b)
		rows[i] = BatchRow{PerReplica: b, Base: base, FredD: fd, Speedup: base.Total / fd.Total}
	})

	tbl := &report.Table{
		Title:  "Extension: minibatch sensitivity, Transformer-17B MP(3)-DP(3)-PP(2)",
		Header: []string{"samples/replica", "baseline", "Fred-D", "speedup", "base exposed"},
	}
	for _, row := range rows {
		tbl.AddRow(row.PerReplica, row.Base.Total, row.FredD.Total, report.FormatX(row.Speedup),
			report.FormatSeconds(row.Base.Breakdown.TotalExposed()))
	}
	return rows, tbl
}

// CommProfile runs one iteration of each Table 6 workload on a system
// and reports the per-class communication statistics — operation
// counts, injected traffic and busy time. One cell per workload.
func (s *Session) CommProfile(sys System) *report.Table {
	models := workload.Models()
	reports := make([]*training.Report, len(models))
	s.forEach("CommProfile", len(models), func(i int, cs *Session) {
		m := workload.Models()[i]
		reports[i] = cs.mustRunTraining(sys, m, defaultStrategy(m), 16)
	})

	tbl := &report.Table{
		Title:  fmt.Sprintf("Communication profile on %s (one iteration, minibatch DP x 16)", sys),
		Header: []string{"workload", "class", "ops", "injected", "busy"},
	}
	for i, m := range models {
		r := reports[i]
		for class := training.Class(0); class < training.ClassLoad; class++ {
			st, ok := r.Comm[class]
			if !ok || st.Ops == 0 {
				continue
			}
			tbl.AddRow(m.Name, class.String(), st.Ops,
				fmt.Sprintf("%.3g GB", st.Bytes/1e9), report.FormatSeconds(st.BusyTime))
		}
	}
	return tbl
}

// Figure1 renders the 3D-parallelism worker/group structure of the
// paper's running example (Figure 1): an MP(4)-DP(3)-PP(2) strategy's
// worker IDs and its concurrent MP, DP and PP communication groups.
func Figure1(s parallelism.Strategy) *report.Table {
	tbl := &report.Table{
		Title:  fmt.Sprintf("Figure 1: 3D parallelism groups of %v (%d workers)", s, s.Workers()),
		Header: []string{"dimension", "groups", "members (worker IDs mp/dp/pp)"},
	}
	render := func(groups [][]int) string {
		out := ""
		for i, g := range groups {
			if i > 0 {
				out += "  |  "
			}
			for j, r := range g {
				if j > 0 {
					out += ","
				}
				out += s.Worker(r).String()
			}
			if i == 3 && len(groups) > 4 {
				out += "  | ..."
				break
			}
		}
		return out
	}
	tbl.AddRow("MP", len(s.MPGroups()), render(s.MPGroups()))
	tbl.AddRow("DP", len(s.DPGroups()), render(s.DPGroups()))
	tbl.AddRow("PP", len(s.PPGroups()), render(s.PPGroups()))
	tbl.AddNote("each worker belongs to one MP, one DP and one PP group; all groups of a dimension communicate concurrently")
	return tbl
}
