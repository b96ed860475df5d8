package experiments

import (
	"fmt"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// CrossoverRow is one message size of the algorithm-crossover study.
type CrossoverRow struct {
	Wafer    int
	Bytes    float64
	RingTime float64
	TreeTime float64
	FredTime float64 // Fred-D in-network
}

// CrossoverStudy reproduces the Section 2.2 background claim that
// endpoint algorithm choice depends on message size: a wafer-wide
// all-reduce on the baseline mesh with the binomial tree (O(log N)
// latency terms, redundant bandwidth) versus the bidirectional ring
// (BW-optimal, O(N) serial steps), against FRED's in-network execution
// which dominates both at every size. One cell per (wafer, size) pair.
func (s *Session) CrossoverStudy() ([]CrossoverRow, *report.Table) {
	wafers := [][2]int{{5, 4}, {8, 8}}
	sizes := []float64{4 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20}

	rows := make([]CrossoverRow, len(wafers)*len(sizes))
	s.forEach("CrossoverStudy", len(rows), func(i int, cs *Session) {
		dims, bytes := wafers[i/len(sizes)], sizes[i%len(sizes)]
		n := dims[0] * dims[1]
		group := make([]int, n)
		for j := range group {
			group[j] = j
		}
		newMesh := func() *topology.Mesh {
			cfg := topology.DefaultMeshConfig()
			cfg.W, cfg.H = dims[0], dims[1]
			return topology.NewMesh(netsim.New(sim.NewScheduler()), cfg)
		}
		row := CrossoverRow{Wafer: n, Bytes: bytes}
		{
			m := newMesh()
			row.RingTime = collective.RunToCompletion(m.Network(),
				collective.RingAllReduce(m, collective.HamiltonianRing(m), bytes, true))
		}
		{
			m := newMesh()
			row.TreeTime = collective.RunToCompletion(m.Network(),
				collective.TreeAllReduce(m, group, bytes))
		}
		{
			cfg := topology.FredConfig{
				NPUs: n, FanIn: []int{4, (n + 3) / 4}, LevelBW: []float64{3e12, 12e12},
				IOCs: 18, IOCBW: 128e9, LinkLatency: 20e-9, InNetwork: true,
			}
			f := topology.NewFredFabric(netsim.New(sim.NewScheduler()), cfg)
			row.FredTime = collective.RunToCompletion(f.Network(),
				collective.NewComm(f).AllReduce(group, bytes))
		}
		rows[i] = row
	})

	tbl := &report.Table{
		Title:  "Section 2.2: endpoint algorithm crossover — wafer-wide all-reduce vs message size",
		Header: []string{"wafer", "size", "mesh ring", "mesh tree", "Fred in-network", "best endpoint"},
	}
	for _, row := range rows {
		best := "ring"
		if row.TreeTime < row.RingTime {
			best = "tree"
		}
		tbl.AddRow(fmt.Sprintf("%d NPUs", row.Wafer), formatBytes(row.Bytes), row.RingTime, row.TreeTime, row.FredTime, best)
	}
	tbl.AddNote("the tree's O(log N) rounds beat the ring's O(N) fill at small sizes on larger wafers; in-network FRED dominates both (Section 2.2)")
	return rows, tbl
}

func formatBytes(b float64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.0f MB", b/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0f KB", b/(1<<10))
	}
	return fmt.Sprintf("%.0f B", b)
}
