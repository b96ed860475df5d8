package experiments

import (
	"fmt"
	"math"

	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/topology"
)

// SummaryRow is one headline comparison between the paper's reported
// value and this reproduction's freshly measured one.
type SummaryRow struct {
	Claim    string
	Paper    float64
	Measured float64
	// Tolerance is the relative band within which the row counts as
	// a match; rows outside it are expected deviations documented in
	// EXPERIMENTS.md.
	Tolerance float64
}

// Match reports whether the measured value lies within the band.
func (r SummaryRow) Match() bool {
	return math.Abs(r.Measured-r.Paper)/r.Paper <= r.Tolerance
}

// Summary recomputes every headline number of the paper next to its
// reported value — the one-screen answer to "does this reproduction
// hold up?". It reads Figure 10, the Figure 11(a) aggregates and the
// I/O hotspot law through the session: training cells an earlier study
// of the session already simulated come from its memo, the rest run on
// fresh simulators across the session's pool.
func (s *Session) Summary() ([]SummaryRow, *report.Table) {
	var rows []SummaryRow
	add := func(claim string, paper, measured, tol float64) {
		rows = append(rows, SummaryRow{Claim: claim, Paper: paper, Measured: measured, Tolerance: tol})
	}

	fig10, _ := s.Figure10(false)
	speedup := func(workload string, sys System) float64 {
		for _, r := range fig10 {
			if r.Workload == workload && r.System == sys {
				return r.Speedup
			}
		}
		return 0
	}
	add("ResNet-152 Fred-C speedup", 1.41, speedup("ResNet-152", FredC), 0.10)
	add("ResNet-152 Fred-D speedup", 1.76, speedup("ResNet-152", FredD), 0.10)
	add("Transformer-17B Fred-C speedup", 1.75, speedup("Transformer-17B", FredC), 0.20)
	add("Transformer-17B Fred-D speedup", 1.87, speedup("Transformer-17B", FredD), 0.20)
	add("GPT-3 Fred-C speedup", 1.34, speedup("GPT-3", FredC), 0.10)
	add("GPT-3 Fred-D speedup", 1.34, speedup("GPT-3", FredD), 0.10)
	add("Transformer-1T Fred-D speedup", 1.4, speedup("Transformer-1T", FredD), 0.20)

	sum11a, _ := s.Figure11a()
	add("Fig 11(a) avg speedup", 1.63, sum11a.AvgSpeedup, 0.10)
	add("Fig 11(a) exposed-comm improvement", 4.22, sum11a.AvgExposedImprovement, 0.10)

	m := s.Build(Baseline).(*topology.Mesh)
	add("mesh I/O hotspot overlap (2N-1)", 9, float64(m.MaxIOChannelOverlap()), 0)
	add("mesh streaming line-rate fraction", 0.65, m.StreamUtilization(), 0.01)

	tbl := &report.Table{
		Title:  "Headline summary: paper vs this reproduction (recomputed live)",
		Header: []string{"claim", "paper", "measured", "verdict"},
	}
	for _, r := range rows {
		verdict := "match"
		if !r.Match() {
			verdict = "deviation (see EXPERIMENTS.md)"
		}
		tbl.AddRow(r.Claim, fmt.Sprintf("%.2f", r.Paper), fmt.Sprintf("%.2f", r.Measured), verdict)
	}
	return rows, tbl
}
