package experiments

import (
	"fmt"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// ScalabilityRow is one wafer size of the scaling study.
type ScalabilityRow struct {
	NPUs       int
	MeshDims   [2]int
	MeshTime   float64 // concurrent DP all-reduces on the mesh
	FredTime   float64 // same on a FRED tree fabric of equal NPU count
	FredLevels int     // switch levels the fabric needed (Section 6.1)
	Gain       float64
	MeshIOUtil float64 // streaming line-rate fraction ((2N−1)P law)
	FredIOUtil float64
}

// ScalabilityStudy extends Section 3.2's analysis across wafer sizes:
// as wafers grow, the mesh's concurrent-collective congestion and its
// I/O hotspot worsen (required link bandwidth grows O(N)), while
// FRED's leaf-local bandwidth and fat-tree streaming stay constant —
// "enabling further scalability of the wafer-scale systems"
// (Section 3.2.1). Each size runs four concurrent DP all-reduces
// (MP(4)-DP(N/4) with the default placements) of 1 GB on both fabrics.
// One cell per wafer size.
func (s *Session) ScalabilityStudy() ([]ScalabilityRow, *report.Table) {
	sizes := [][2]int{{5, 4}, {6, 6}, {8, 8}}
	rows := make([]ScalabilityRow, len(sizes))
	s.forEach("ScalabilityStudy", len(sizes), func(i int, cs *Session) {
		dims := sizes[i]
		n := dims[0] * dims[1]
		row := ScalabilityRow{NPUs: n, MeshDims: dims}

		// DP groups: ranks {r, r+4, ...} for r = 0..3.
		groups := make([][]int, 4)
		for r := 0; r < 4; r++ {
			for m := r; m < n; m += 4 {
				groups[r] = append(groups[r], m)
			}
		}
		runConcurrent := func(w topology.Wafer) float64 {
			comm := collective.NewComm(w)
			var scheds []collective.Schedule
			for _, g := range groups {
				scheds = append(scheds, comm.AllReduce(g, 1e9))
			}
			return maxOf(collective.RunConcurrently(w.Network(), scheds))
		}

		mcfg := topology.DefaultMeshConfig()
		mcfg.W, mcfg.H = dims[0], dims[1]
		mesh := topology.NewMesh(netsim.New(sim.NewScheduler()), mcfg)
		row.MeshTime = runConcurrent(mesh)
		row.MeshIOUtil = mesh.StreamUtilization()

		// FRED side: a 2-level fabric up to 36 NPUs; the Section 6.1
		// hierarchical design grows a third switch level at 64 NPUs.
		fcfg := topology.FredConfig{
			NPUs:        n,
			FanIn:       []int{4, (n + 3) / 4},
			LevelBW:     []float64{3e12, 12e12},
			IOCs:        2 * (dims[0] + dims[1]), // match the mesh's channel count
			IOCBW:       128e9,
			LinkLatency: 20e-9,
			InNetwork:   true,
		}
		if n > 36 {
			// Three levels: 4 NPUs per leaf, 4 leaves per mid switch,
			// all mids under one root.
			fcfg.FanIn = []int{4, 4, (n + 15) / 16}
			fcfg.LevelBW = []float64{3e12, 12e12, 48e12}
		}
		fabric := topology.NewFredFabric(netsim.New(sim.NewScheduler()), fcfg)
		row.FredLevels = fabric.Levels()
		row.FredTime = runConcurrent(fabric)
		row.FredIOUtil = fabric.StreamUtilization()

		row.Gain = row.MeshTime / row.FredTime
		rows[i] = row
	})

	tbl := &report.Table{
		Title:  "Extension: scaling the wafer — concurrent DP(4 groups) all-reduce and I/O utilization vs size",
		Header: []string{"NPUs", "mesh", "mesh DP", "Fred DP", "levels", "gain", "mesh I/O util", "Fred I/O util"},
	}
	for _, row := range rows {
		tbl.AddRow(row.NPUs, fmt.Sprintf("%dx%d", row.MeshDims[0], row.MeshDims[1]), row.MeshTime, row.FredTime,
			row.FredLevels, report.FormatX(row.Gain), report.FormatFraction(row.MeshIOUtil),
			report.FormatFraction(row.FredIOUtil))
	}
	tbl.AddNote("mesh I/O needs (2N-1)x128 GB/s hotspot links (O(N)); FRED leaves scale by replication")
	return rows, tbl
}
