package experiments

import (
	"fmt"
	"strings"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/placement"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// NonAlignedResult captures the Figure 6 study: the non-aligned
// MP(5)-DP(3)-PP(1) strategy on a 4×4 mesh.
type NonAlignedResult struct {
	// MaxRingHop is the longest physical distance between consecutive
	// logical-ring members of an MP group (Figure 6(a): rigid mesh
	// shapes force 2-hop ring edges).
	MaxRingHop int
	// DPSoloTime is one DP ring's 1 GB all-reduce alone.
	DPSoloTime float64
	// DPConcurrentTime is the slowest of the three DP rings running
	// together (Figure 6(b) congestion).
	DPConcurrentTime float64
	// FredTime is the same three concurrent DP all-reduces on Fred-D.
	FredTime float64
	// Heatmap is a text rendering of per-link load during the
	// concurrent DP phase.
	Heatmap string
}

// NonAlignedStudy reproduces Section 3.2.3: non-aligned parallelization
// dimensions create stretched logical rings and inter-group congestion
// on the mesh, while FRED serves any group shape at port bandwidth.
// The three simulations (mesh solo, mesh concurrent + heatmap, Fred-D
// concurrent) are independent cells; the ring-stretch metric is pure
// graph geometry and computed inline.
func (s *Session) NonAlignedStudy() (*NonAlignedResult, *report.Table) {
	strat := parallelism.Strategy{MP: 5, DP: 3, PP: 1}
	p := placement.MeshDefault(strat)
	res := &NonAlignedResult{}

	cfg := topology.DefaultMeshConfig()
	cfg.W, cfg.H = 4, 4
	newMesh := func() *topology.Mesh {
		return topology.NewMesh(netsim.New(sim.NewScheduler()), cfg)
	}

	// Ring stretch within MP groups.
	m := newMesh()
	for _, g := range strat.MPGroups() {
		order := collective.SnakeOrder(m, p.NPUs(g))
		for i := range order {
			d := m.Distance(order[i], order[(i+1)%len(order)])
			if d > res.MaxRingHop {
				res.MaxRingHop = d
			}
		}
	}

	dpSchedules := func(w topology.Wafer) []collective.Schedule {
		comm := collective.NewComm(w)
		var out []collective.Schedule
		for _, g := range strat.DPGroups() {
			out = append(out, comm.AllReduce(p.NPUs(g), 1e9))
		}
		return out
	}

	s.forEach("NonAlignedStudy", 3, func(i int, cs *Session) {
		switch i {
		case 0: // solo on the mesh
			mSolo := newMesh()
			res.DPSoloTime = collective.RunToCompletion(mSolo.Network(), dpSchedules(mSolo)[0])
		case 1: // concurrent on the mesh, plus the heatmap
			mConc := newMesh()
			res.DPConcurrentTime = maxOf(collective.RunConcurrently(mConc.Network(), dpSchedules(mConc)))
			res.Heatmap = meshLoadHeatmap(mConc, dpSchedules(mConc))
		case 2: // Fred-D: 16 of its 20 NPUs used
			fd := cs.Build(FredD)
			res.FredTime = maxOf(collective.RunConcurrently(fd.Network(), dpSchedules(fd)))
		}
	})

	tbl := &report.Table{
		Title:  "Figure 6: non-aligned MP(5)-DP(3)-PP(1) on a 4x4 mesh",
		Header: []string{"metric", "value"},
	}
	tbl.AddRow("max MP ring hop distance", res.MaxRingHop)
	tbl.AddRow("DP all-reduce, one group alone", res.DPSoloTime)
	tbl.AddRow("DP all-reduce, 3 groups concurrent", res.DPConcurrentTime)
	tbl.AddRow("congestion slowdown", report.FormatX(res.DPConcurrentTime/res.DPSoloTime))
	tbl.AddRow("same concurrent DP on Fred-D", res.FredTime)
	tbl.AddNote("link-load heatmap of the concurrent DP phase (units of 1 GB per directed link):\n%s", res.Heatmap)
	return res, tbl
}

// meshLoadHeatmap renders per-directed-link traffic of a set of
// schedules as an ASCII mesh: horizontal loads between columns,
// vertical loads between rows (sum of both directions, in GB).
func meshLoadHeatmap(m *topology.Mesh, schedules []collective.Schedule) string {
	load := map[netsim.LinkID]float64{}
	for _, s := range schedules {
		for l, b := range s.LinkBytes() {
			load[l] += b
		}
	}
	w, h := m.Dims()
	var b strings.Builder
	for y := 0; y < h; y++ {
		// Node row with horizontal links.
		for x := 0; x < w; x++ {
			fmt.Fprintf(&b, "[%2d]", m.Index(x, y))
			if x+1 < w {
				sum := load[m.NeighborLink(m.Index(x, y), m.Index(x+1, y))] +
					load[m.NeighborLink(m.Index(x+1, y), m.Index(x, y))]
				fmt.Fprintf(&b, "-%3.1f-", sum/1e9)
			}
		}
		b.WriteByte('\n')
		if y+1 < h {
			for x := 0; x < w; x++ {
				sum := load[m.NeighborLink(m.Index(x, y), m.Index(x, y+1))] +
					load[m.NeighborLink(m.Index(x, y+1), m.Index(x, y))]
				fmt.Fprintf(&b, " %3.1f     ", sum/1e9)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TrainingHeatmap runs one Transformer-17B iteration on the baseline
// mesh and renders the per-link traffic the iteration actually put on
// the wafer (from the simulator's link byte counters) — the Figure
// 6(b)-style view of a full training step. A single simulation: no
// fan-out.
func (s *Session) TrainingHeatmap(strat parallelism.Strategy) (string, *report.Table) {
	w := s.Build(Baseline).(*topology.Mesh)
	r := mustTrain(training.Config{
		Wafer:               w,
		Model:               workload.Transformer17B(),
		Strategy:            strat,
		MinibatchPerReplica: 16,
	})
	net := w.Network()
	width, height := w.Dims()
	var b strings.Builder
	for y := 0; y < height; y++ {
		for x := 0; x < width; x++ {
			fmt.Fprintf(&b, "[%2d]", w.Index(x, y))
			if x+1 < width {
				sum := net.Link(w.NeighborLink(w.Index(x, y), w.Index(x+1, y))).BytesCarried() +
					net.Link(w.NeighborLink(w.Index(x+1, y), w.Index(x, y))).BytesCarried()
				fmt.Fprintf(&b, "-%4.0f-", sum/1e9)
			}
		}
		b.WriteByte('\n')
		if y+1 < height {
			for x := 0; x < width; x++ {
				sum := net.Link(w.NeighborLink(w.Index(x, y), w.Index(x, y+1))).BytesCarried() +
					net.Link(w.NeighborLink(w.Index(x, y+1), w.Index(x, y))).BytesCarried()
				fmt.Fprintf(&b, " %4.0f     ", sum/1e9)
			}
			b.WriteByte('\n')
		}
	}
	tbl := &report.Table{
		Title:  fmt.Sprintf("Link traffic (GB, both directions) of one %v Transformer-17B iteration on the baseline mesh", strat),
		Header: []string{"iteration", "exposed comm"},
	}
	tbl.AddRow(r.Total, report.FormatSeconds(r.Breakdown.TotalExposed()))
	tbl.AddNote("heatmap:\n%s", b.String())
	return b.String(), tbl
}
