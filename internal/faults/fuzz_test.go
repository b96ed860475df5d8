package faults

import (
	"encoding/binary"
	"math"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// FuzzPlan feeds arbitrary fault plans to the injector: every plan
// either fails Validate or Schedule, or schedules and runs to the end
// on a small mesh carrying traffic without panicking. The input is a
// sequence of fixed-size event records (see decodePlan); At, Factor
// and Recover are raw float64 bits, so NaN and ±Inf are reachable.
//
// Run the seed corpus with the ordinary test suite, or explore with:
// go test -run='^$' -fuzz=FuzzPlan ./internal/faults
func FuzzPlan(f *testing.F) {
	for _, e := range badEvents {
		f.Add(encodePlan(Event{At: 0.1, Kind: LinkFail, Target: 3}, e))
	}
	// Unappliable on the mesh: link targets out of range.
	f.Add(encodePlan(Event{At: 0.1, Kind: LinkFail, Target: 1 << 40}))
	f.Add(encodePlan(Event{At: 0.1, Kind: LinkDegrade, Target: 1000, Factor: 0.5}))
	// Appliable plans: every kind, overlapping faults, a degrade that
	// recovers, an NPU drop racing a failure on its own port.
	f.Add(encodePlan(
		Event{At: 0.01, Kind: LinkDegrade, Target: 2, Factor: 0.25, Recover: 0.02},
		Event{At: 0.015, Kind: LinkFail, Target: 2},
		Event{At: 0.02, Kind: NPUDrop, Target: 1},
		Event{At: 0.02, Kind: LinkFail, Target: 0},
		Event{At: 0.03, Kind: SwitchFail, Target: 4},
		Event{At: 1e300, Kind: LinkDegrade, Target: 5, Factor: 1, Recover: 1e300},
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodePlan(data)
		if p.Validate() != nil {
			return
		}
		runPlanOnMesh(t, p)
	})
}

// eventBytes is the size of one encoded event: At, Factor and Recover
// as float64 bits, Target as an int64, Kind as an int8.
const eventBytes = 8 + 8 + 8 + 8 + 1

func encodePlan(events ...Event) []byte {
	var b []byte
	for _, e := range events {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.At))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Factor))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(e.Recover))
		b = binary.LittleEndian.AppendUint64(b, uint64(e.Target))
		b = append(b, byte(int8(e.Kind)))
	}
	return b
}

// decodePlan reads up to 16 whole event records; a trailing partial
// record is ignored, so every input decodes.
func decodePlan(data []byte) Plan {
	var p Plan
	for len(data) >= eventBytes && len(p.Events) < 16 {
		u := func(i int) uint64 { return binary.LittleEndian.Uint64(data[8*i:]) }
		p.Events = append(p.Events, Event{
			At:      math.Float64frombits(u(0)),
			Factor:  math.Float64frombits(u(1)),
			Recover: math.Float64frombits(u(2)),
			Target:  int(int64(u(3))),
			Kind:    EventKind(int8(data[32])),
		})
		data = data[eventBytes:]
	}
	return p
}

// runPlanOnMesh schedules p on a 3×2 mesh whose NPUs each stream to
// their neighbour in index order for about 50 ms, and runs the
// simulation dry. A plan Schedule rejects arms nothing.
func runPlanOnMesh(t *testing.T, p Plan) {
	t.Helper()
	s := sim.NewScheduler()
	net := netsim.New(s)
	cfg := topology.DefaultMeshConfig()
	cfg.W, cfg.H = 3, 2
	m := topology.NewMesh(net, cfg)
	for i := 0; i < m.NPUCount(); i++ {
		net.StartFlow(netsim.FlowSpec{
			Links: m.Route(i, (i+1)%m.NPUCount()), Bytes: cfg.LinkBW * 0.05, Latency: -1,
		})
	}
	// A SwitchFail names a topology-defined switch; a bare mesh has
	// none to take down, so the hook only lets such plans schedule.
	inj := NewInjector(net).OnSwitchFail(func(int) {})
	if err := inj.Schedule(p); err != nil {
		if s.Pending() != m.NPUCount() {
			t.Fatalf("rejected plan (%v) armed %d events", err, s.Pending()-m.NPUCount())
		}
		return
	}
	s.Run()
}
