package collective

import (
	"slices"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// The TestFredTree* tests run collectives on a FRED fabric taller than the
// Table 5 variants' two levels.

// newTree builds a 64-NPU, 3-level fabric: 4 NPUs per leaf, 4 leaves
// per mid switch, 4 mid switches under the root.
func newTree(inNetwork bool) (*netsim.Network, *topology.FredFabric) {
	net := netsim.New(sim.NewScheduler())
	return net, topology.NewFredFabric(net, topology.FredConfig{
		NPUs:        64,
		FanIn:       []int{4, 4, 4},
		LevelBW:     []float64{3e12, 12e12, 48e12},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
		InNetwork:   inNetwork,
	})
}

// sixHops is the cut-through latency up and down three levels,
// computed at run time as the schedules do.
var sixHops = func() float64 { lat := 20e-9; return 6 * lat }()

func TestFredTreeInNetworkAllReduceLeafLocal(t *testing.T) {
	// A leaf-local group runs at the full NPU port bandwidth.
	net, tr := newTree(true)
	c := NewComm(tr)
	got := RunToCompletion(net, c.AllReduce([]int{0, 1, 2, 3}, gb))
	within(t, "leaf-local tree all-reduce", got, gb/3e12, 0.02)
}

func TestFredTreeInNetworkAllReduceGlobal(t *testing.T) {
	// All 64 NPUs: the NPU links (3 TB/s carrying D each) bound the
	// pipelined tree.
	net, tr := newTree(true)
	c := NewComm(tr)
	group := make([]int, 64)
	for i := range group {
		group[i] = i
	}
	got := RunToCompletion(net, c.AllReduce(group, gb))
	within(t, "global tree all-reduce", got, gb/3e12, 0.02)
}

func TestFredTreeReduceScatterAllGather(t *testing.T) {
	net, tr := newTree(true)
	c := NewComm(tr)
	group := []int{0, 1, 4, 5, 16, 17}
	rs := c.ReduceScatter(group, gb)
	ag := c.AllGather(group, gb)
	if rs.Empty() || ag.Empty() {
		t.Fatal("empty schedules")
	}
	if len(rs.Phases) != len(group) || len(ag.Phases) != len(group) {
		t.Fatalf("phases: RS %d, AG %d, want %d serial steps each", len(rs.Phases), len(ag.Phases), len(group))
	}
	d1 := RunToCompletion(net, rs)
	if d1 <= 0 {
		t.Fatal("RS did not run")
	}
	net2, tr2 := newTree(true)
	d2 := RunToCompletion(net2, NewComm(tr2).AllGather(group, gb))
	if d2 <= 0 {
		t.Fatal("AG did not run")
	}
}

func TestFredTreeEndpointFallsBackToRings(t *testing.T) {
	net, tr := newTree(false)
	c := NewComm(tr)
	group := []int{0, 1, 2, 3}
	// Endpoint ring of 4 through the leaf: 2(3/4)·D per NPU at 3 TB/s.
	got := RunToCompletion(net, c.AllReduce(group, gb))
	within(t, "tree endpoint ring", got, 1.5*gb/3e12, 0.05)
}

func TestFredTreeMulticastInNetworkVsEndpoint(t *testing.T) {
	netIn, trIn := newTree(true)
	tIn := RunToCompletion(netIn, NewComm(trIn).Multicast(0, []int{1, 2, 3}, gb))
	within(t, "tree in-network multicast", tIn, gb/3e12, 0.02)

	netEp, trEp := newTree(false)
	tEp := RunToCompletion(netEp, NewComm(trEp).Multicast(0, []int{1, 2, 3}, gb))
	within(t, "tree endpoint multicast (3 unicasts)", tEp, 3*gb/3e12, 0.02)
}

func TestFredTreeCrossLevelCollective(t *testing.T) {
	// Members spread across mid-switch subtrees exercise level-2 links.
	net, tr := newTree(true)
	c := NewComm(tr)
	group := []int{0, 16, 32, 48} // one NPU per mid-switch subtree
	s := c.AllReduce(group, gb)
	// One tree transfer over 4 NPU, 4 leaf and 4 mid links each way,
	// 6 hops deep.
	if tr := s.Phases[0][0]; len(tr.Links) != 24 || tr.LatencyOverride != sixHops {
		t.Fatalf("tree transfer: %d links, latency %g; want 24, %g", len(tr.Links), tr.LatencyOverride, sixHops)
	}
	got := RunToCompletion(net, s)
	// Single flow: bound by the NPU links (3 TB/s).
	within(t, "cross-level all-reduce", got, gb/3e12, 0.02)
}

func TestFredTreeConcurrentGroupsShareTrunks(t *testing.T) {
	// Sixteen concurrent cross-subtree all-reduces (one per leaf
	// position) share the 12 TB/s leaf trunks: each leaf trunk carries
	// 4 flows (its 4 NPUs in distinct groups) — still below 12 TB/s at
	// D each, so all finish at the NPU-link bound.
	net, tr := newTree(true)
	c := NewComm(tr)
	var scheds []Schedule
	for r := 0; r < 16; r++ {
		group := []int{r, 16 + r, 32 + r, 48 + r}
		scheds = append(scheds, c.AllReduce(group, gb))
	}
	times := RunConcurrently(net, scheds)
	for i, tm := range times {
		within(t, "concurrent tree group", tm, gb/3e12, 0.05)
		_ = i
	}
}

// TestFredTreeReduceAndMulticastLinks: on three levels the in-switch
// reduce climbs each member's switches up to the level that joins it
// with the root and descends the root's path; the multicast mirrors it.
func TestFredTreeReduceAndMulticastLinks(t *testing.T) {
	_, tr := newTree(true)
	up, down := tr.UpLink, tr.DownLink
	red := FredInNetworkReduce(tr, []int{0, 1, 4, 16}, 0, gb).Phases[0][0]
	want := []netsim.LinkID{up(1, 0), up(4, 0), up(16, 0), up(4, 1), up(16, 1), up(16, 2), down(0, 2), down(0, 1), down(0, 0)}
	if !slices.Equal(red.Links, want) || red.LatencyOverride != sixHops {
		t.Fatalf("reduce links %v latency %g, want %v, %g", red.Links, red.LatencyOverride, want, sixHops)
	}
	mc := FredInNetworkMulticast(tr, 0, []int{16, 17, 1, 4}, gb).Phases[0][0]
	want = []netsim.LinkID{down(16, 0), down(16, 1), down(16, 2), down(17, 0), down(1, 0), down(4, 0), down(4, 1),
		up(0, 0), up(0, 1), up(0, 2)}
	if !slices.Equal(mc.Links, want) || mc.LatencyOverride != sixHops {
		t.Fatalf("multicast links %v latency %g, want %v, %g", mc.Links, mc.LatencyOverride, want, sixHops)
	}
}
