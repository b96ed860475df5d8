package experiments

import (
	"fmt"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/placement"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/waferscale"
)

// PlacementRow is one (placement, dimension) measurement of the
// Figure 5 study.
type PlacementRow struct {
	Placement string
	Dim       placement.Dim
	Overlap   int     // max schedules sharing one link
	Time      float64 // concurrent completion time of the dimension's groups
}

// PlacementStudy regenerates the Figure 5 trade-off: MP(2)-DP(4)-PP(2)
// on a 4×4 mesh under an MP-favouring and a DP/PP-favouring placement,
// plus FRED with its consecutive placement. For each dimension it
// reports static link overlap and the simulated completion time of the
// dimension's concurrent 1 GB collectives. One cell per
// (placement, dimension) pair.
func (s *Session) PlacementStudy() ([]PlacementRow, *report.Table) {
	strat := parallelism.Strategy{MP: 2, DP: 4, PP: 2}

	newMesh44 := func() (topology.Wafer, placement.Placement, placement.Placement) {
		cfg := topology.DefaultMeshConfig()
		cfg.W, cfg.H = 4, 4
		m := topology.NewMesh(netsim.New(sim.NewScheduler()), cfg)
		return m,
			placement.ByDimOrder(strat, [3]placement.Dim{placement.MP, placement.DP, placement.PP}),
			placement.ByDimOrder(strat, [3]placement.Dim{placement.DP, placement.PP, placement.MP})
	}
	builds := []struct {
		name  string
		build func() (topology.Wafer, placement.Placement)
	}{
		{"mesh MP-first (Fig 5a)", func() (topology.Wafer, placement.Placement) {
			w, mpFirst, _ := newMesh44()
			return w, mpFirst
		}},
		{"mesh DP-first (Fig 5b)", func() (topology.Wafer, placement.Placement) {
			w, _, dpFirst := newMesh44()
			return w, dpFirst
		}},
		{"Fred-D consecutive", func() (topology.Wafer, placement.Placement) {
			net := netsim.New(sim.NewScheduler())
			return topology.NewFredVariant(net, topology.FredD), placement.Consecutive(strat)
		}},
	}
	dims := []placement.Dim{placement.MP, placement.DP, placement.PP}

	rows := make([]PlacementRow, len(builds)*len(dims))
	s.forEach("PlacementStudy", len(rows), func(i int, cs *Session) {
		b, dim := builds[i/len(dims)], dims[i%len(dims)]
		w, p := b.build()
		rep := placement.Congestion(w, strat, p)
		var groups [][]int
		switch dim {
		case placement.MP:
			groups = strat.MPGroups()
		case placement.DP:
			groups = strat.DPGroups()
		case placement.PP:
			groups = strat.PPGroups()
		}
		comm := collective.NewComm(w)
		var scheds []collective.Schedule
		for _, g := range groups {
			if len(g) < 2 {
				continue
			}
			npus := p.NPUs(g)
			if dim == placement.PP {
				// Pipeline traffic: stage-to-stage transfers.
				var phases []collective.Phase
				for j := 0; j+1 < len(npus); j++ {
					phases = append(phases, comm.P2P(npus[j], npus[j+1], 1e9).Phases...)
				}
				scheds = append(scheds, collective.Schedule{Name: "pp", Phases: phases})
			} else {
				scheds = append(scheds, comm.AllReduce(npus, 1e9))
			}
		}
		max := maxOf(collective.RunConcurrently(w.Network(), scheds))
		rows[i] = PlacementRow{Placement: b.name, Dim: dim, Overlap: rep.MaxOverlap[dim], Time: max}
	})

	tbl := &report.Table{
		Title:  "Figure 5: device placement trade-off, MP(2)-DP(4)-PP(2) on 4x4 mesh",
		Header: []string{"placement", "dim", "max link overlap", "concurrent time (1GB)"},
	}
	for _, row := range rows {
		tbl.AddRow(row.Placement, row.Dim.String(), row.Overlap, row.Time)
	}
	tbl.AddNote("a mesh placement must sacrifice one dimension (Section 3.2.2); FRED routes all three congestion-free")
	return rows, tbl
}

// HWTables renders Tables 3-5: physical parameters, FRED overhead, and
// the evaluated configurations.
func HWTables() []*report.Table {
	t3 := &report.Table{
		Title:  "Table 3: physical system parameters",
		Header: []string{"component", "value"},
	}
	t3.AddRow("wafer area", fmt.Sprintf("%.0f mm²", float64(waferscale.WaferAreaMM2)))
	t3.AddRow("power budget", fmt.Sprintf("%.0f kW", waferscale.PowerBudgetW/1000))
	t3.AddRow("NPU compute", fmt.Sprintf("%.0f mm², %.0f W, %.0f TFLOPS FP16",
		float64(waferscale.NPUComputeAreaMM2), float64(waferscale.NPUComputePowerW), float64(waferscale.NPUPeakFP16TFLOPs)))
	t3.AddRow("NPU memory", fmt.Sprintf("%d x HBM3, %.0f GB, %s",
		waferscale.HBMStacksPerNPU, waferscale.HBMCapacityBytes/1e9, report.FormatBW(waferscale.HBMBandwidthBps)))
	t3.AddRow("NPU total", fmt.Sprintf("%.0f mm², %.0f W", waferscale.NPUAreaMM2(), waferscale.NPUPowerW()))
	t3.AddRow("I/O controllers", fmt.Sprintf("%d x CXL-3, %s each",
		waferscale.IOControllerCount, report.FormatBW(waferscale.IOControllerBWBps)))
	t3.AddRow("NPUs on wafer", waferscale.NPUCount)
	t3.AddRow("compute+I/O area", fmt.Sprintf("%.0f mm²", waferscale.BaselineComputeAreaMM2()))

	o := waferscale.Table4()
	t4 := &report.Table{
		Title:  "Table 4: FRED implementation overhead",
		Header: []string{"component", "count", "area", "power"},
	}
	for _, c := range o.Chiplets {
		t4.AddRow(c.Name, c.Count, fmt.Sprintf("%.0f mm²", c.AreaMM2), fmt.Sprintf("%.2f W", c.PowerW))
	}
	t4.AddRow("wafer-scale wiring", "-", "-", fmt.Sprintf("%.0f W", o.WiringPowerW))
	t4.AddRow("total", "-", fmt.Sprintf("%.0f mm²", o.TotalAreaMM2()), fmt.Sprintf("%.2f W", o.TotalPowerW()))
	t4.AddNote("power fraction of budget: %s; fits wafer: %v",
		report.FormatFraction(o.PowerFraction()), o.FitsWafer())
	t4.AddNote("switch area at 250 GB/s/mm I/O: %.0f mm²; at 1 TB/s/mm (UCIe-A): %.0f mm²",
		o.AreaWithIODensity(250), o.AreaWithIODensity(1000))

	t5 := &report.Table{
		Title:  "Table 5: target configurations",
		Header: []string{"config", "bisection", "in-network", "description"},
	}
	for _, c := range waferscale.Table5() {
		t5.AddRow(c.Name, report.FormatBW(c.BisectionBW), fmt.Sprint(c.InNetwork), c.Description)
	}
	return []*report.Table{t3, t4, t5}
}
