package experiments

import (
	"fmt"

	"github.com/wafernet/fred/internal/multiwafer"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/report"
)

// ScaleOutRow is one system size of the hierarchical scale-out study.
type ScaleOutRow struct {
	NPUs     int
	Wafers   int
	Dims     []int
	Links    int     // total netsim links (all wafers + inter-wafer grid)
	Hier     float64 // hierarchical boundary-parallel global all-reduce
	Naive    float64 // single-leader full-payload exchange
	Gain     float64
	FillWork netsim.FillStats // deterministic rate-engine cost counters
}

// dimsLabel renders a dimension list as "4x2" ("flat" for one level).
func dimsLabel(dims []int) string {
	if len(dims) == 1 {
		return "flat"
	}
	s := ""
	for i, d := range dims {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprintf("%d", d)
	}
	return s
}

// ScaleOutStudy sweeps hierarchical multi-wafer systems from the
// paper's 2-wafer ring up to an 8x8 grid (1280 NPUs of Fred-D wafers),
// running the Section 8.3 global all-reduce on each and reporting,
// alongside the end-to-end times, the sharded rate engine's
// deterministic work counters. The per-wafer fabrics and each
// scale-out dimension's rings form disjoint contention domains by
// construction, so the engine's per-recompute fill work tracks the
// flows a phase actually perturbs instead of the whole system —
// FillWork.FlowsFilled grows sublinearly in total link count, which is
// the scaling headroom the sharded engine buys (see DESIGN.md,
// "Sharded rate engine"). Fills run on a width-4 worker pool; every
// counter and time below is byte-identical at any pool width and any
// -parallel fan-out. One cell per system size.
func (s *Session) ScaleOutStudy() ([]ScaleOutRow, *report.Table) {
	systems := [][]int{nil, {4}, {4, 2}, {4, 4}, {8, 4}, {8, 8}}
	wafersOf := func(dims []int) int {
		if dims == nil {
			return 2
		}
		w := 1
		for _, d := range dims {
			w *= d
		}
		return w
	}
	rows := make([]ScaleOutRow, len(systems))
	s.forEach("ScaleOutStudy", len(systems), func(i int, cs *Session) {
		cfg := multiwafer.DefaultConfig()
		cfg.Wafers = wafersOf(systems[i])
		cfg.Dims = systems[i]
		cfg.FillWorkers = 4
		// Read the hierarchical system's row fields and release it
		// before building the naive one, so the two 64-wafer systems are
		// never alive together.
		sh := multiwafer.New(cfg)
		hier := sh.Run(sh.GlobalAllReduce(10e9))
		row := ScaleOutRow{
			NPUs:     sh.NPUCount(),
			Wafers:   cfg.Wafers,
			Dims:     sh.Dims(),
			Links:    sh.Network().NumLinks(),
			Hier:     hier,
			FillWork: sh.Network().FillStats(),
		}
		sh.Close()
		sn := multiwafer.New(cfg)
		defer sn.Close()
		row.Naive = sn.Run(sn.NaiveAllReduce(10e9))
		row.Gain = row.Naive / hier
		rows[i] = row
	})

	tbl := &report.Table{
		Title:  "Extension: hierarchical multi-wafer scale-out (10 GB global all-reduce, Fred-D wafers, 18 x 128 GB/s ports)",
		Header: []string{"NPUs", "wafers", "dims", "links", "hierarchical", "naive leader", "gain", "recomputes", "domains filled", "flows filled"},
	}
	for _, r := range rows {
		tbl.AddRow(r.NPUs, r.Wafers, dimsLabel(r.Dims), r.Links, r.Hier, r.Naive,
			report.FormatX(r.Gain), r.FillWork.Recomputes, r.FillWork.DomainsFilled, r.FillWork.FlowsFilled)
	}
	tbl.AddNote("per-wafer fabrics and per-dimension rings are disjoint contention domains; fill work tracks dirty domains, not system size")
	return rows, tbl
}

// ScaleOutStudy runs the study on a fresh default session.
func ScaleOutStudy() ([]ScaleOutRow, *report.Table) { return NewSession().ScaleOutStudy() }
