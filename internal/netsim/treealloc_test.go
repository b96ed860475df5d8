package netsim_test

import (
	"testing"

	"github.com/wafernet/fred/internal/collective"
	. "github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// TestInNetworkTreeFlowZeroAlloc: a flow over a whole-wafer in-network
// tree — 25 links on a 20-NPU Fred-D wafer, longer than any unicast
// route — is started, drained, finished and recycled without a single
// allocation once the network holds a finished Flow to reuse. A
// multicast tree sharing the L1↔L2 links runs beside it, so both flows
// also go through a contended fill.
func TestInNetworkTreeFlowZeroAlloc(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	f := topology.NewFredVariant(net, topology.FredD)
	group := make([]int, f.NPUCount())
	for i := range group {
		group[i] = i
	}
	reduce := collective.FredInNetworkReduce(f, group, 0, 1).Phases[0][0].Links
	multicast := collective.FredInNetworkMulticast(f, 7, group, 1).Phases[0][0].Links
	if len(reduce) != 25 || len(multicast) != 25 {
		t.Fatalf("trees have %d and %d links, want 25 each", len(reduce), len(multicast))
	}
	finished := 0
	done := func(*Flow) { finished++ }
	run := func() (*Flow, *Flow) {
		a := net.StartFlow(FlowSpec{Links: reduce, Bytes: 1e6, Latency: -1, Done: done})
		b := net.StartFlow(FlowSpec{Links: multicast, Bytes: 2e6, Latency: -1, Done: done})
		s.Run()
		return a, b
	}
	a0, b0 := run()
	if a1, b1 := run(); a1 != b0 || b1 != a0 {
		t.Fatal("finished tree flows were not recycled by the next StartFlows")
	}
	if allocs := testing.AllocsPerRun(100, func() { run() }); allocs != 0 {
		t.Fatalf("start, finish and recycle of two tree flows allocate %v objects/run, want 0", allocs)
	}
	if finished != 2*(2+101) {
		t.Fatalf("%d flows finished, want %d", finished, 2*(2+101))
	}
}
