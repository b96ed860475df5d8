package topology

import (
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

func newTestMesh() *Mesh {
	return NewMesh(netsim.New(sim.NewScheduler()), DefaultMeshConfig())
}

func TestMeshBaselineShape(t *testing.T) {
	m := newTestMesh()
	if m.NPUCount() != 20 {
		t.Fatalf("NPUCount = %d, want 20", m.NPUCount())
	}
	if m.IOCCount() != 18 {
		t.Fatalf("IOCCount = %d, want 18 (Table 5)", m.IOCCount())
	}
	if got := m.Name(); got != "mesh-5x4" {
		t.Fatalf("Name = %q", got)
	}
}

func TestMeshBisection(t *testing.T) {
	m := newTestMesh()
	if got := m.BisectionBW(); got != 3.75e12 {
		t.Fatalf("BisectionBW = %g, want 3.75 TB/s (Table 5)", got)
	}
}

func TestMeshIndexCoordRoundTrip(t *testing.T) {
	m := newTestMesh()
	for i := 0; i < m.NPUCount(); i++ {
		x, y := m.Coord(i)
		if m.Index(x, y) != i {
			t.Fatalf("Index(Coord(%d)) = %d", i, m.Index(x, y))
		}
	}
}

// TestMeshDegree counts each NPU's outgoing mesh links: 2 at corners,
// 3 on edges, 4 inside — the corner-NPU limit that caps the baseline's
// effective collective bandwidth (Section 8.1).
func TestMeshDegree(t *testing.T) {
	m := newTestMesh()
	degree := map[int]int{}
	for pair := range m.links {
		degree[pair[0]]++
	}
	// 5×4: corners degree 2, edges 3, interior 4.
	cases := map[int]int{
		m.Index(0, 0): 2, m.Index(4, 0): 2, m.Index(0, 3): 2, m.Index(4, 3): 2,
		m.Index(2, 0): 3, m.Index(0, 2): 3,
		m.Index(2, 2): 4, m.Index(1, 1): 4,
	}
	for npu, want := range cases {
		if got := degree[npu]; got != want {
			t.Errorf("Degree(%d) = %d, want %d", npu, got, want)
		}
	}
}

func TestMeshXYRouteGoesXFirst(t *testing.T) {
	m := newTestMesh()
	route := m.Route(m.Index(0, 0), m.Index(2, 2))
	if len(route) != 4 {
		t.Fatalf("route length %d, want 4", len(route))
	}
	net := m.Network()
	// First two hops traverse X (dst node changes column), last two Y.
	l0 := net.Link(route[0])
	if want := m.npus[m.Index(1, 0)]; l0.Dst != want {
		t.Fatalf("first hop lands on node %d, want npu(1,0), node %d", l0.Dst, want)
	}
	l2 := net.Link(route[2])
	if want := m.npus[m.Index(2, 1)]; l2.Dst != want {
		t.Fatalf("third hop lands on node %d, want npu(2,1), node %d", l2.Dst, want)
	}
}

func TestMeshRouteSelfEmpty(t *testing.T) {
	m := newTestMesh()
	if r := m.Route(7, 7); len(r) != 0 {
		t.Fatalf("self route has %d links", len(r))
	}
}

func TestMeshNeighborLinkPanicsForNonNeighbors(t *testing.T) {
	m := newTestMesh()
	defer func() {
		if recover() == nil {
			t.Fatal("NeighborLink on non-neighbours did not panic")
		}
	}()
	m.NeighborLink(0, 2)
}

// Property: X-Y routes are connected, have Manhattan length, and end
// at the destination.
func TestPropertyXYRouteValid(t *testing.T) {
	m := newTestMesh()
	net := m.Network()
	f := func(a, b uint8) bool {
		src, dst := int(a)%20, int(b)%20
		route := m.Route(src, dst)
		if len(route) != m.Distance(src, dst) {
			return false
		}
		cur := src
		for _, id := range route {
			l := net.Link(id)
			if l.Src != m.npus[cur] {
				return false
			}
			// Find the NPU index of l.Dst.
			found := -1
			for i, n := range m.npus {
				if n == l.Dst {
					found = i
					break
				}
			}
			if found < 0 || m.Distance(cur, found) != 1 {
				return false
			}
			cur = found
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMeshLoadTreeReachesAllNPUs(t *testing.T) {
	m := newTestMesh()
	net := m.Network()
	for ioc := 0; ioc < m.IOCCount(); ioc++ {
		tree := m.IOCLoadTree(ioc)
		reached := make(map[netsim.NodeID]bool)
		for _, id := range tree {
			reached[net.Link(id).Dst] = true
		}
		for i, n := range m.npus {
			if !reached[n] {
				t.Fatalf("ioc %d load tree misses NPU %d", ioc, i)
			}
		}
	}
}

func TestMeshLoadTreeIsTree(t *testing.T) {
	// Each node is entered by at most one tree edge (it's a tree, not
	// a DAG with duplicate deliveries).
	m := newTestMesh()
	net := m.Network()
	for ioc := 0; ioc < m.IOCCount(); ioc++ {
		in := make(map[netsim.NodeID]int)
		for _, id := range m.IOCLoadTree(ioc) {
			in[net.Link(id).Dst]++
		}
		for node, c := range in {
			if c > 1 {
				t.Fatalf("ioc %d tree enters node %d %d times", ioc, node, c)
			}
		}
	}
}

func TestMeshStoreTreeMirrorsLoadTree(t *testing.T) {
	m := newTestMesh()
	net := m.Network()
	for ioc := 0; ioc < m.IOCCount(); ioc++ {
		load := m.IOCLoadTree(ioc)
		store := m.IOCStoreTree(ioc)
		if len(load) != len(store) {
			t.Fatalf("ioc %d: load %d links, store %d", ioc, len(load), len(store))
		}
		// The store tree must consist of the reversed load edges.
		type pair [2]netsim.NodeID
		loadSet := make(map[pair]bool)
		for _, id := range load {
			l := net.Link(id)
			loadSet[pair{l.Src, l.Dst}] = true
		}
		for _, id := range store {
			l := net.Link(id)
			if !loadSet[pair{l.Dst, l.Src}] {
				t.Fatalf("ioc %d: store edge %d->%d has no mirrored load edge",
					ioc, l.Src, l.Dst)
			}
		}
	}
}

func TestMeshHotspotLaw(t *testing.T) {
	// Figure 4(B) / Section 3.2.1: max channel overlap = 2N−1 where N
	// is the wider dimension; 9 for the 5×4 baseline.
	m := newTestMesh()
	if got := m.MaxIOChannelOverlap(); got != 9 {
		t.Fatalf("MaxIOChannelOverlap = %d, want 2·5−1 = 9", got)
	}
}

func TestMeshHotspotLawSquare(t *testing.T) {
	// The paper's general law for an N×N mesh with 4N channels.
	for _, n := range []int{3, 4, 5, 6} {
		cfg := DefaultMeshConfig()
		cfg.W, cfg.H = n, n
		m := NewMesh(netsim.New(sim.NewScheduler()), cfg)
		if got, want := m.MaxIOChannelOverlap(), 2*n-1; got != want {
			t.Errorf("N=%d: overlap = %d, want %d", n, got, want)
		}
	}
}

func TestMeshStreamUtilization(t *testing.T) {
	// Section 8.2 GPT-3 analysis: 750/((2·5−1)·128) = 0.6510…
	m := newTestMesh()
	got := m.StreamUtilization()
	want := 750.0 / 1152.0
	if got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("StreamUtilization = %g, want %g", got, want)
	}
}

func TestMeshStreamUtilizationSimulated(t *testing.T) {
	// Drive all 18 broadcast trees concurrently through the flow
	// simulator; the slowest stream's rate must equal
	// LinkBW / MaxIOChannelOverlap (= 0.651 of line rate), confirming
	// the analytic law end to end.
	s := sim.NewScheduler()
	net := netsim.New(s)
	m := NewMesh(net, DefaultMeshConfig())
	var flows []*netsim.Flow
	for ioc := 0; ioc < m.IOCCount(); ioc++ {
		flows = append(flows, net.StartFlow(netsim.FlowSpec{
			Links: m.IOCLoadTree(ioc), Bytes: 1e15, Latency: 0,
		}))
	}
	s.RunUntil(0)
	minRate := 1e30
	for _, f := range flows {
		if f.Rate() < minRate {
			minRate = f.Rate()
		}
	}
	want := 750e9 / 9.0
	if minRate < want*0.999 || minRate > want*1.001 {
		t.Fatalf("slowest stream rate = %g, want %g", minRate, want)
	}
	// The stream cannot exceed the channel line rate either; effective
	// utilisation is min(rate, IOCBW)/IOCBW ≈ 0.651.
	util := minRate / 128e9
	if util > 1 {
		util = 1
	}
	if util < 0.63 || util > 0.67 {
		t.Fatalf("simulated utilisation = %g, want ≈ 0.651", util)
	}
	for _, f := range flows {
		f.Cancel()
	}
}

func TestMeshNearestIOCSpreads(t *testing.T) {
	m := newTestMesh()
	used := make(map[int]int)
	for npu := 0; npu < m.NPUCount(); npu++ {
		ioc := m.NearestIOC(npu)
		if ioc < 0 || ioc >= m.IOCCount() {
			t.Fatalf("NearestIOC(%d) = %d out of range", npu, ioc)
		}
		used[ioc]++
	}
	// No single controller should serve more than a handful of NPUs.
	for ioc, n := range used {
		if n > 4 {
			t.Fatalf("ioc %d serves %d NPUs", ioc, n)
		}
	}
}

func TestMeshIOCRoutesValid(t *testing.T) {
	m := newTestMesh()
	net := m.Network()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		ioc := rng.Intn(m.IOCCount())
		npu := rng.Intn(m.NPUCount())
		down := m.IOCToNPU(ioc, npu)
		if len(down) == 0 {
			t.Fatal("empty IOCToNPU route")
		}
		if net.Link(down[len(down)-1]).Dst != m.npus[npu] {
			t.Fatalf("IOCToNPU(%d,%d) does not end at NPU", ioc, npu)
		}
		up := m.NPUToIOC(npu, ioc)
		if net.Link(up[0]).Src != m.npus[npu] {
			t.Fatalf("NPUToIOC(%d,%d) does not start at NPU", npu, ioc)
		}
	}
}

func TestMeshTooSmallPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("1-wide mesh did not panic")
		}
	}()
	cfg := DefaultMeshConfig()
	cfg.W = 1
	NewMesh(netsim.New(sim.NewScheduler()), cfg)
}
