package collective

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

const gb = 1e9

func newMesh() (*netsim.Network, *topology.Mesh) {
	net := netsim.New(sim.NewScheduler())
	return net, topology.NewMesh(net, topology.DefaultMeshConfig())
}

func newFred(v topology.FredVariant) (*netsim.Network, *topology.FredFabric) {
	net := netsim.New(sim.NewScheduler())
	return net, topology.NewFredVariant(net, v)
}

func allNPUs(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*want {
		t.Fatalf("%s = %.6g, want %.6g (±%.0f%%)", name, got, want, tol*100)
	}
}

func TestHamiltonianRingIsCycle(t *testing.T) {
	_, m := newMesh()
	order := HamiltonianRing(m)
	if len(order) != 20 {
		t.Fatalf("cycle length %d, want 20", len(order))
	}
	seen := make(map[int]bool)
	for i, npu := range order {
		if seen[npu] {
			t.Fatalf("NPU %d repeated", npu)
		}
		seen[npu] = true
		next := order[(i+1)%len(order)]
		if m.Distance(npu, next) != 1 {
			t.Fatalf("cycle hop %d→%d is %d mesh hops", npu, next, m.Distance(npu, next))
		}
	}
}

func TestHamiltonianRingTransposed(t *testing.T) {
	cfg := topology.DefaultMeshConfig()
	cfg.W, cfg.H = 4, 5 // height odd, width even → transposed construction
	m := topology.NewMesh(netsim.New(sim.NewScheduler()), cfg)
	order := HamiltonianRing(m)
	if len(order) != 20 {
		t.Fatalf("cycle length %d", len(order))
	}
	for i, npu := range order {
		next := order[(i+1)%len(order)]
		if m.Distance(npu, next) != 1 {
			t.Fatalf("transposed cycle hop %d→%d not adjacent", npu, next)
		}
	}
}

func TestSnakeOrderSortsRowMajorBoustrophedon(t *testing.T) {
	_, m := newMesh()
	group := []int{12, 3, 7, 16, 0}
	order := SnakeOrder(m, group)
	// Rows ascend; within odd rows x descends.
	lastRow := -1
	for _, npu := range order {
		_, y := m.Coord(npu)
		if y < lastRow {
			t.Fatalf("snake order rows not ascending: %v", order)
		}
		lastRow = y
	}
	if len(order) != len(group) {
		t.Fatalf("order lost members: %v", order)
	}
}

// --- Figure 9, MP(20)-DP(1)-PP(1): wafer-wide all-reduce ---
//
// Expected completion times for D bytes (Section 8.1's analysis):
//   Baseline:  2(19/20)·D / 1.5 TB/s   (Hamiltonian ring, 2 links/NPU)
//   Fred-A:    ≈ 1.6D/1.5TB/s on the L1-L2 hotspot → 1.067 ps/byte
//   Fred-B:    D / 1.5 TB/s            (in-network, L1-L2 line rate)
//   Fred-C:    2(19/20)·D / 3 TB/s     (endpoint at full NPU BW)
//   Fred-D:    D / 3 TB/s              (in-network at full NPU BW)

func TestWaferWideAllReduceBaseline(t *testing.T) {
	net, m := newMesh()
	d := MeshAllReduce(m, allNPUs(20), gb)
	got := RunToCompletion(net, d)
	within(t, "baseline wafer all-reduce", got, 1.9*gb/1.5e12, 0.02)
}

func TestWaferWideAllReduceFredA(t *testing.T) {
	net, f := newFred(topology.FredA)
	got := RunToCompletion(net, FredEndpointAllReduce(f, allNPUs(20), gb))
	within(t, "Fred-A wafer all-reduce", got, 1.6*gb/1.5e12, 0.05)
}

func TestWaferWideAllReduceFredB(t *testing.T) {
	net, f := newFred(topology.FredB)
	got := RunToCompletion(net, FredInNetworkAllReduce(f, allNPUs(20), gb))
	within(t, "Fred-B wafer all-reduce", got, gb/1.5e12, 0.02)
}

func TestWaferWideAllReduceFredC(t *testing.T) {
	net, f := newFred(topology.FredC)
	got := RunToCompletion(net, FredEndpointAllReduce(f, allNPUs(20), gb))
	within(t, "Fred-C wafer all-reduce", got, 1.9*gb/3e12, 0.05)
}

func TestWaferWideAllReduceFredD(t *testing.T) {
	net, f := newFred(topology.FredD)
	got := RunToCompletion(net, FredInNetworkAllReduce(f, allNPUs(20), gb))
	within(t, "Fred-D wafer all-reduce", got, gb/3e12, 0.02)
}

func TestWaferWideOrdering(t *testing.T) {
	// Fred-D ≤ Fred-C ≤ Fred-B ≤ Fred-A; baseline worst (Figure 9 left).
	times := map[string]float64{}
	{
		net, m := newMesh()
		times["base"] = RunToCompletion(net, MeshAllReduce(m, allNPUs(20), gb))
	}
	for _, v := range []topology.FredVariant{topology.FredA, topology.FredB, topology.FredC, topology.FredD} {
		net, f := newFred(v)
		c := NewComm(f)
		times[string(v)] = RunToCompletion(net, c.AllReduce(allNPUs(20), gb))
	}
	if !(times["Fred-D"] < times["Fred-C"] && times["Fred-C"] < times["Fred-B"] &&
		times["Fred-B"] < times["Fred-A"] && times["Fred-A"] < times["base"]) {
		t.Fatalf("ordering violated: %v", times)
	}
}

// --- Figure 9, MP(2)-DP(5)-PP(2): MP pair all-reduce ---

func TestPairAllReduceBaselineAdjacent(t *testing.T) {
	// Adjacent pair on the mesh: traffic D over one 750 GB/s link.
	net, m := newMesh()
	got := RunToCompletion(net, MeshAllReduce(m, []int{0, 1}, gb))
	within(t, "mesh pair all-reduce", got, gb/750e9, 0.02)
}

func TestPairAllReduceFredVariantsEqual(t *testing.T) {
	// Section 8.1: with two peers, endpoint and in-network traffic are
	// the same (D per NPU), so all FRED variants perform alike:
	// D / 3 TB/s through the shared leaf switch.
	for _, v := range []topology.FredVariant{topology.FredA, topology.FredB, topology.FredC, topology.FredD} {
		net, f := newFred(v)
		c := NewComm(f)
		got := RunToCompletion(net, c.AllReduce([]int{0, 1}, gb))
		within(t, string(v)+" pair all-reduce", got, gb/3e12, 0.02)
	}
}

// --- Figure 9, MP(2)-DP(5)-PP(2): four concurrent DP(5) all-reduces ---

func dpGroups() [][]int {
	// Ranks {r, r+4, ..., r+16} for r = 0..3 — one member per leaf
	// switch under the consecutive placement.
	var groups [][]int
	for r := 0; r < 4; r++ {
		g := make([]int, 5)
		for i := range g {
			g[i] = r + 4*i
		}
		groups = append(groups, g)
	}
	return groups
}

func runConcurrentDP(t *testing.T, net *netsim.Network, c *Comm) float64 {
	t.Helper()
	var scheds []Schedule
	for _, g := range dpGroups() {
		scheds = append(scheds, c.AllReduce(g, gb))
	}
	times := RunConcurrently(net, scheds)
	max := 0.0
	for _, tm := range times {
		if tm > max {
			max = tm
		}
	}
	return max
}

func TestConcurrentDPFredA(t *testing.T) {
	// Endpoint rings across leaves: 1.6D per NPU over a 375 GB/s
	// effective NPU-L2 share (Section 8.1: "worse than the baseline").
	net, f := newFred(topology.FredA)
	got := runConcurrentDP(t, net, NewComm(f))
	within(t, "Fred-A concurrent DP", got, 1.6*gb/375e9, 0.05)
}

func TestConcurrentDPFredB(t *testing.T) {
	// In-network: D per NPU at the 375 GB/s L1-L2 share.
	net, f := newFred(topology.FredB)
	got := runConcurrentDP(t, net, NewComm(f))
	within(t, "Fred-B concurrent DP", got, gb/375e9, 0.05)
}

func TestConcurrentDPFredC(t *testing.T) {
	// Endpoint at full 3 TB/s NPU bandwidth: 1.6D/3TB/s.
	net, f := newFred(topology.FredC)
	got := runConcurrentDP(t, net, NewComm(f))
	within(t, "Fred-C concurrent DP", got, 1.6*gb/3e12, 0.05)
}

func TestConcurrentDPFredD(t *testing.T) {
	// In-network at full bandwidth: D/3TB/s.
	net, f := newFred(topology.FredD)
	got := runConcurrentDP(t, net, NewComm(f))
	within(t, "Fred-D concurrent DP", got, gb/3e12, 0.05)
}

func TestConcurrentDPBaselineWorseThanFredD(t *testing.T) {
	net, m := newMesh()
	got := runConcurrentDP(t, net, NewComm(m))
	// The paper's analysis bounds the baseline at ~750 GB/s effective
	// with 1.6D traffic (plus X-Y congestion between the four rings).
	if got < 1.6*gb/750e9*0.9 {
		t.Fatalf("baseline concurrent DP = %g, implausibly fast (analysis bound %g)",
			got, 1.6*gb/750e9)
	}
	netD, fd := newFred(topology.FredD)
	fredT := runConcurrentDP(t, netD, NewComm(fd))
	if got <= fredT {
		t.Fatalf("baseline (%g) not slower than Fred-D (%g)", got, fredT)
	}
}

// --- PP multicast (footnote 8) ---

func TestPPMulticastFred(t *testing.T) {
	// One MP member feeds both next-stage NPUs under the same leaf:
	// full 3 TB/s through the up-link on in-network variants.
	net, f := newFred(topology.FredD)
	c := NewComm(f)
	got := RunToCompletion(net, c.Multicast(0, []int{1, 2}, gb))
	within(t, "Fred-D PP multicast", got, gb/3e12, 0.02)
}

func TestPPMulticastFredEndpointSerialUnicasts(t *testing.T) {
	// Endpoint-only switches cannot replicate: the source sends twice.
	net, f := newFred(topology.FredC)
	c := NewComm(f)
	got := RunToCompletion(net, c.Multicast(0, []int{1, 2}, gb))
	within(t, "Fred-C PP multicast", got, 2*gb/3e12, 0.02)
}

func TestPPMulticastMeshForwardingTree(t *testing.T) {
	// Mesh NPUs forward along the X-Y tree: bottleneck is the first
	// link out of the source (750 GB/s).
	net, m := newMesh()
	c := NewComm(m)
	got := RunToCompletion(net, c.Multicast(0, []int{1, 2, 5}, gb))
	within(t, "mesh PP multicast", got, gb/750e9, 0.02)
}

// --- Structural properties ---

func TestRingAllReduceTrafficOptimal(t *testing.T) {
	// Per-member injected traffic must be 2(N−1)/N · D.
	_, f := newFred(topology.FredC)
	for _, n := range []int{2, 3, 4, 5, 8} {
		s := RingAllReduce(f, allNPUs(n), gb, true)
		perMember := s.TotalBytes() / float64(n)
		within(t, "ring traffic", perMember, 2*float64(n-1)/float64(n)*gb, 1e-9)
	}
}

func TestInNetworkAllReduceTrafficHalved(t *testing.T) {
	// Section 2.2: per-NPU in-network traffic D vs endpoint 2(N−1)/N·D.
	_, f := newFred(topology.FredD)
	group := allNPUs(8)
	s := FredInNetworkAllReduce(f, group, gb)
	perLink := s.LinkBytes()
	for _, npu := range group {
		if got := perLink[f.UpLink(npu, 0)]; got != gb {
			t.Fatalf("NPU %d injects %g, want %g", npu, got, gb)
		}
		if got := perLink[f.DownLink(npu, 0)]; got != gb {
			t.Fatalf("NPU %d receives %g, want %g", npu, got, gb)
		}
	}
}

func TestReduceScatterPlusAllGatherEqualsAllReduce(t *testing.T) {
	// RS followed by AG must cost the same traffic as one all-reduce.
	_, m := newMesh()
	group := allNPUs(20)
	rs := MeshReduceScatter(m, group, gb)
	ag := MeshAllGather(m, group, gb)
	ar := MeshAllReduce(m, group, gb)
	within(t, "RS+AG traffic", rs.TotalBytes()+ag.TotalBytes(), ar.TotalBytes(), 1e-9)
}

func TestAllToAllPhases(t *testing.T) {
	_, m := newMesh()
	s := AllToAll(m, allNPUs(5), gb)
	if len(s.Phases) != 4 {
		t.Fatalf("all-to-all phases = %d, want N−1 = 4", len(s.Phases))
	}
	// Each member sends D total across the phases.
	within(t, "all-to-all traffic", s.TotalBytes(), 5*gb, 1e-9)
}

func TestUnicastSelfOrZeroIsNoop(t *testing.T) {
	net, m := newMesh()
	c := NewComm(m)
	if !c.P2P(3, 3, gb).Empty() {
		t.Fatal("self unicast not empty")
	}
	if !c.AllReduce([]int{5}, gb).Empty() {
		t.Fatal("singleton all-reduce not empty")
	}
	if got := RunToCompletion(net, c.P2P(3, 3, gb)); got != 0 {
		t.Fatalf("noop schedule took %g", got)
	}
}

func TestOpPauseResume(t *testing.T) {
	net, f := newFred(topology.FredD)
	c := NewComm(f)
	sched := net.Scheduler()
	var done sim.Time = -1
	var op *Op
	op = Start(net, c.AllReduce(allNPUs(20), 3e12), func(o *Op) { done = o.Finished() })
	// Unimpeded the op takes 1s (3 TB at 3 TB/s). Pause it for 2s at
	// t=0.5 and expect completion around 2.5s (plus re-setup latency).
	sched.At(0.5, func() { op.Pause() })
	sched.At(2.5, func() { op.Resume() })
	sched.Run()
	if done < 2.99 || done > 3.01 {
		t.Fatalf("preempted op finished at %g, want ≈ 3.0", done)
	}
	if op.State() != OpDone {
		t.Fatalf("op state = %v", op.State())
	}
}

func TestOpDurationAccounting(t *testing.T) {
	net, f := newFred(topology.FredD)
	c := NewComm(f)
	var dur sim.Time
	Start(net, c.AllReduce(allNPUs(4), 3e12), func(o *Op) { dur = o.Duration() })
	net.Scheduler().Run()
	within(t, "op duration", dur, 1.0, 0.01)
}

// Property: every compiled schedule's transfers reference valid links
// and move non-negative bytes; total traffic is finite and positive
// for non-trivial groups.
func TestPropertySchedulesWellFormed(t *testing.T) {
	net, m := newMesh()
	netF, f := newFred(topology.FredD)
	_ = net
	_ = netF
	comms := []*Comm{NewComm(m), NewComm(f)}
	check := func(seed int64, sel uint8) bool {
		c := comms[int(sel)%2]
		nLinks := c.Wafer().Network().NumLinks()
		rng := newRand(seed)
		// Random group of 2..8 distinct NPUs.
		perm := rng.Perm(20)
		group := perm[:2+rng.Intn(7)]
		for _, s := range []Schedule{
			c.AllReduce(group, gb),
			c.ReduceScatter(group, gb),
			c.AllGather(group, gb),
			c.AllToAll(group, gb),
			c.Multicast(group[0], group[1:], gb),
			c.P2P(group[0], group[1], gb),
		} {
			if s.TotalBytes() < 0 {
				return false
			}
			for _, ph := range s.Phases {
				for _, tr := range ph {
					if tr.Bytes < 0 || len(tr.Links) == 0 {
						return false
					}
					for _, l := range tr.Links {
						if int(l) < 0 || int(l) >= nLinks {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: running any compiled collective to completion terminates
// with positive duration on an idle network.
func TestPropertyCollectivesComplete(t *testing.T) {
	check := func(seed int64, inNet bool) bool {
		v := topology.FredC
		if inNet {
			v = topology.FredD
		}
		net, f := newFred(v)
		c := NewComm(f)
		rng := newRand(seed)
		perm := rng.Perm(20)
		group := perm[:2+rng.Intn(10)]
		dur := RunToCompletion(net, c.AllReduce(group, gb))
		return dur > 0 && !math.IsInf(dur, 0)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTreeAllReduceRoundCount(t *testing.T) {
	_, m := newMesh()
	group := allNPUs(20)
	s := TreeAllReduce(m, group, gb)
	// ⌈log2 20⌉ = 5 reduce rounds + 5 broadcast rounds.
	if len(s.Phases) != 10 {
		t.Fatalf("phases = %d, want 10", len(s.Phases))
	}
}

func TestTreeAllReduceBandwidthCost(t *testing.T) {
	// The tree moves the full payload every round: far slower than the
	// ring at bandwidth-bound sizes.
	netRing, mRing := newMesh()
	ring := RunToCompletion(netRing, RingAllReduce(mRing, HamiltonianRing(mRing), 256e6, true))
	netTree, mTree := newMesh()
	tree := RunToCompletion(netTree, TreeAllReduce(mTree, allNPUs(20), 256e6))
	if tree < ring*2 {
		t.Fatalf("tree (%g) should be much slower than ring (%g) at 256 MB", tree, ring)
	}
}

func TestTreeAllReduceTrivial(t *testing.T) {
	_, m := newMesh()
	if !TreeAllReduce(m, []int{3}, gb).Empty() {
		t.Fatal("singleton tree not empty")
	}
	if !TreeAllReduce(m, allNPUs(4), 0).Empty() {
		t.Fatal("zero-byte tree not empty")
	}
}
