package experiments

import (
	"fmt"
	"math/rand"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/faults"
	"github.com/wafernet/fred/internal/netobs"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// FaultSweepRow is one failure count of the graceful-degradation
// study: the effective wafer-wide all-reduce bandwidth of Fred-A and
// the baseline mesh — equal 3.75 TB/s bisection — after K injected
// faults each.
type FaultSweepRow struct {
	Failures int
	FredBW   float64 // bytes/s; 0 means the collective could not complete
	MeshBW   float64
	// Blame decomposes the degraded all-reduce's elapsed time
	// (serialized transfer / link contention / fault recovery).
	FredBlame critpath.Blame
	MeshBlame critpath.Blame
}

// fredMiddles is the paper's middle-stage redundancy m = 3: each FRED
// µswitch level keeps m parallel middle subnetworks, so one failed
// µswitch removes 1/m of a trunk's paths and the trunk keeps
// (m−1)/m of its bandwidth.
const fredMiddles = 3

// faultSweepBytes is the all-reduce payload: big enough that the
// measurement is bandwidth-dominated, like the paper's Figure 9 tail.
const faultSweepBytes = 256 << 20

// FaultSweep is the FRED-vs-mesh graceful-degradation study: for each
// failure count K it injects a seeded fault plan into both fabrics at
// equal bisection bandwidth (Fred-A and the 5×4 baseline mesh, both
// 3.75 TB/s) and measures the effective bandwidth of a wafer-wide
// all-reduce on the degraded fabric.
//
// The fault models differ the way the topologies do. A FRED µswitch
// failure lands inside one L1↔L2 trunk's switch interconnect, where
// the Clos spare paths absorb it: the trunk keeps (m−1)/m of its
// bandwidth and full connectivity (internal/fred bans the failed
// middle's color; here the flow-level model degrades the trunk). A
// mesh link failure removes the link outright: rings re-plan around it
// with X-Y detours, stretching paths and concentrating load. One cell
// per K; everything is seeded, so the table is byte-identical at every
// worker-pool size.
func (s *Session) FaultSweep() ([]FaultSweepRow, *report.Table) {
	const maxFailures = 4 // distinct L1 trunks on Fred-A (5 L1s)
	rows := make([]FaultSweepRow, maxFailures+1)
	s.forEach("FaultSweep", len(rows), func(k int, cs *Session) {
		fredBW, fredBlame := cs.fredDegradedBW(k)
		meshBW, meshBlame := cs.meshDegradedBW(k)
		rows[k] = FaultSweepRow{
			Failures:  k,
			FredBW:    fredBW,
			MeshBW:    meshBW,
			FredBlame: fredBlame,
			MeshBlame: meshBlame,
		}
	})

	tbl := &report.Table{
		Title:  "Graceful degradation: wafer-wide all-reduce effective BW vs injected faults (equal 3.75 TB/s bisection)",
		Header: []string{"failures", "Fred-A (failed µswitches)", "fred ser/cont/fault", "mesh 5x4 (failed links)", "mesh ser/cont/fault", "FRED/mesh"},
	}
	for _, row := range rows {
		ratio := "∞"
		if row.MeshBW > 0 {
			ratio = fmt.Sprintf("%.2fx", row.FredBW/row.MeshBW)
		}
		tbl.AddRow(row.Failures, formatRate(row.FredBW), formatBlame(row.FredBlame),
			formatRate(row.MeshBW), formatBlame(row.MeshBlame), ratio)
	}
	tbl.AddNote("FRED's Clos spare paths turn a µswitch failure into a 1/m trunk degradation; the mesh loses links outright and detours stretch its rings")
	tbl.AddNote("ser/cont/fault: critical-path blame shares of the degraded all-reduce's elapsed time")
	return rows, tbl
}

// fredDegradedBW measures the all-reduce bandwidth of Fred-A after k
// µswitch failures, each landing in a distinct L1↔L2 trunk's
// interconnect (seeded choice of trunks), plus the run's critical-path
// blame decomposition.
func (s *Session) fredDegradedBW(k int) (float64, critpath.Blame) {
	net := netsim.New(sim.NewScheduler())
	f := topology.NewFredVariant(net, topology.FredA)
	s.observeNetwork(net, FredA)
	ensureCritPath(net)

	inj := faults.NewInjector(net).SetMetrics(netobs.Registry(net))
	inj.OnSwitchFail(func(l1 int) {
		// One µswitch down inside this trunk's Fred_m interconnect takes
		// its middle subnetwork out of service: the trunk keeps (m−1)/m.
		factor := float64(fredMiddles-1) / fredMiddles
		net.Link(f.L1UpLink(l1)).Degrade(factor)
		net.Link(f.L1DownLink(l1)).Degrade(factor)
	})
	rng := rand.New(rand.NewSource(int64(7001 + k)))
	trunks := rng.Perm(f.L1Count())[:k]
	var plan faults.Plan
	for _, t := range trunks {
		plan.Events = append(plan.Events, faults.Event{Kind: faults.SwitchFail, Target: t})
	}
	if err := inj.Schedule(plan); err != nil {
		panic(err)
	}
	net.Scheduler().Run() // apply the plan before traffic starts

	group := f.AliveNPUs()
	elapsed, blame, err := collective.RunToCompletionBlame(net, collective.NewComm(f).AllReduce(group, faultSweepBytes))
	if err != nil || elapsed <= 0 {
		return 0, blame
	}
	return faultSweepBytes / float64(elapsed), blame
}

// meshDegradedBW measures the all-reduce bandwidth of the baseline
// mesh after k seeded link failures (both directions of k distinct
// physical mesh links), plus the run's critical-path blame
// decomposition.
func (s *Session) meshDegradedBW(k int) (float64, critpath.Blame) {
	net := netsim.New(sim.NewScheduler())
	m := topology.NewMesh(net, topology.DefaultMeshConfig())
	s.observeNetwork(net, Baseline)
	ensureCritPath(net)

	// Candidate physical links, in deterministic scan order.
	type pair struct{ a, b int }
	var pairs []pair
	w, h := m.Dims()
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				pairs = append(pairs, pair{m.Index(x, y), m.Index(x+1, y)})
			}
			if y+1 < h {
				pairs = append(pairs, pair{m.Index(x, y), m.Index(x, y+1)})
			}
		}
	}
	rng := rand.New(rand.NewSource(int64(7001 + k)))
	var plan faults.Plan
	for _, pi := range rng.Perm(len(pairs))[:k] {
		p := pairs[pi]
		plan.Events = append(plan.Events,
			faults.Event{Kind: faults.LinkFail, Target: int(m.NeighborLink(p.a, p.b))},
			faults.Event{Kind: faults.LinkFail, Target: int(m.NeighborLink(p.b, p.a))})
	}
	inj := faults.NewInjector(net).SetMetrics(netobs.Registry(net))
	if err := inj.Schedule(plan); err != nil {
		panic(err)
	}
	net.Scheduler().Run()

	group := make([]int, m.NPUCount())
	for i := range group {
		group[i] = i
	}
	elapsed, blame, err := collective.RunToCompletionBlame(net, collective.NewComm(m).AllReduceDegraded(group, faultSweepBytes))
	if err != nil || elapsed <= 0 {
		return 0, blame
	}
	return faultSweepBytes / float64(elapsed), blame
}

// formatRate renders a bandwidth in the fixed GB/s form used by the
// degradation table ("-" for a collective that could not complete).
func formatRate(bytesPerSec float64) string {
	if bytesPerSec <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f GB/s", bytesPerSec/1e9)
}

// formatBlame renders a blame decomposition as percentage shares of
// its own total ("-" when nothing was attributed).
func formatBlame(b critpath.Blame) string {
	total := b.Total()
	if total <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f/%.0f/%.0f%%", 100*b.Serial/total, 100*b.Contention/total, 100*b.Fault/total)
}

// ensureCritPath attaches a fresh critpath recorder to a network that
// does not already carry one (blame-column studies need a
// decomposition even on sessions with collection off).
func ensureCritPath(net *netsim.Network) {
	if net.CritPath() == nil {
		net.SetCritPath(critpath.NewRecorder())
	}
}
