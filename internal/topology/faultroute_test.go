package topology

import (
	"math/rand"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// checkAllPairs asserts the route-validity property: for every NPU
// pair, RouteErr either returns a route using only alive links or an
// UnreachableError — never a route crossing a dead link.
func checkAllPairs(t *testing.T, tag string, w Wafer) (routes, unreachable int) {
	t.Helper()
	net := w.Network()
	for src := 0; src < w.NPUCount(); src++ {
		for dst := 0; dst < w.NPUCount(); dst++ {
			route, err := w.RouteErr(src, dst)
			if err != nil {
				if _, ok := err.(*UnreachableError); !ok {
					t.Fatalf("%s: %d->%d: error %v is not an UnreachableError", tag, src, dst, err)
				}
				unreachable++
				continue
			}
			routes++
			for _, id := range route {
				if net.Link(id).Failed() {
					t.Fatalf("%s: route %d->%d crosses failed link %s", tag, src, dst, net.Link(id).Name)
				}
			}
		}
	}
	return routes, unreachable
}

// TestMeshRouteValidityUnderRandomFaults is the property test of the
// issue: across seeded random fault plans with increasing failure
// counts, every route the mesh produces uses only alive links, and
// unreachability is always reported as an error.
func TestMeshRouteValidityUnderRandomFaults(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := netsim.New(sim.NewScheduler())
		m := NewMesh(net, DefaultMeshConfig())
		// Fail up to a third of the mesh links (in pairs sometimes, to
		// exercise whole-channel loss), plus occasionally a whole NPU.
		nFail := 1 + rng.Intn(net.NumLinks()/3)
		for i := 0; i < nFail; i++ {
			net.Link(netsim.LinkID(rng.Intn(net.NumLinks()))).Fail()
		}
		if rng.Intn(2) == 0 {
			net.FailNode(netsim.NodeID(rng.Intn(m.NPUCount())))
		}
		routes, unreachable := checkAllPairs(t, "mesh", m)
		if routes == 0 {
			t.Errorf("seed %d: every pair unreachable (%d) — fault plan implausibly severe", seed, unreachable)
		}
	}
}

func TestMeshDetourPrefersXYWhenAlive(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	m := NewMesh(net, DefaultMeshConfig())
	src, dst := m.Index(0, 0), m.Index(3, 2)
	want := m.Route(src, dst)
	got, err := m.RouteErr(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("healthy RouteErr length %d != XY length %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("healthy RouteErr diverges from XY at hop %d", i)
		}
	}
}

func TestMeshDetourAroundSingleFailure(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	m := NewMesh(net, DefaultMeshConfig())
	src, dst := m.Index(0, 0), m.Index(2, 0)
	// Kill the first eastward hop of the XY route.
	net.Link(m.NeighborLink(m.Index(0, 0), m.Index(1, 0))).Fail()
	route, err := m.RouteErr(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(route) <= 2 {
		t.Fatalf("detour of %d hops cannot avoid the dead link", len(route))
	}
	for _, id := range route {
		if net.Link(id).Failed() {
			t.Fatal("detour crosses the failed link")
		}
	}
}

func TestMeshUnreachableWhenIsolated(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	m := NewMesh(net, DefaultMeshConfig())
	// Cut every mesh port of the corner NPU (0,0).
	net.FailNode(net.Link(m.NeighborLink(m.Index(0, 0), m.Index(1, 0))).Src)
	_, err := m.RouteErr(m.Index(0, 0), m.Index(2, 2))
	ue, ok := err.(*UnreachableError)
	if !ok {
		t.Fatalf("got %v, want UnreachableError", err)
	}
	if ue.Src != 0 {
		t.Fatalf("error names src %d, want 0", ue.Src)
	}
}

func TestFredFabricRouteErr(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	f := NewFredVariant(net, FredA)
	// Fail L1.0's up-trunk: pairs crossing the root from L1 0 error,
	// pairs inside L1 0 and pairs not sourced there keep working.
	net.Link(f.L1UpLink(0)).Fail()
	if _, err := f.RouteErr(0, 5); err == nil {
		t.Fatal("route across the failed trunk did not error")
	}
	if _, err := f.RouteErr(0, 1); err != nil {
		t.Fatalf("intra-L1 route failed: %v", err)
	}
	if _, err := f.RouteErr(5, 0); err != nil {
		t.Fatalf("reverse route (alive down-trunk) failed: %v", err)
	}
	checkAllPairs(t, "fredA", f)
}

func TestFredTreeRouteValidityUnderRandomFaults(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		net := netsim.New(sim.NewScheduler())
		ft := NewFredFabric(net, FredConfig{
			NPUs: 16, FanIn: []int{4, 2, 2}, LevelBW: []float64{3e12, 1.5e12, 1.5e12},
			IOCs: 4, IOCBW: 128e9, LinkLatency: 20e-9,
		})
		for i := 1 + rng.Intn(4); i > 0; i-- {
			net.Link(netsim.LinkID(rng.Intn(net.NumLinks()))).Fail()
		}
		checkAllPairs(t, "fredtree", ft)
	}
}

func TestAliveNPUs(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	m := NewMesh(net, DefaultMeshConfig())
	if got := len(m.AliveNPUs()); got != m.NPUCount() {
		t.Fatalf("healthy mesh: %d alive NPUs, want %d", got, m.NPUCount())
	}
	// Drop NPU 7 entirely.
	net.FailNode(netsim.NodeID(7))
	alive := m.AliveNPUs()
	if len(alive) != m.NPUCount()-1 {
		t.Fatalf("%d alive after dropout, want %d", len(alive), m.NPUCount()-1)
	}
	for _, i := range alive {
		if i == 7 {
			t.Fatal("dropped NPU still reported alive")
		}
	}

	net2 := netsim.New(sim.NewScheduler())
	f := NewFredVariant(net2, FredA)
	net2.Link(f.UpLink(3, 0)).Fail()
	alive = f.AliveNPUs()
	if len(alive) != f.NPUCount()-1 {
		t.Fatalf("fred: %d alive, want %d", len(alive), f.NPUCount()-1)
	}

	// A multi-level tree drops an NPU whose down port failed.
	net3 := netsim.New(sim.NewScheduler())
	ft := NewFredFabric(net3, FredConfig{
		NPUs: 16, FanIn: []int{4, 2, 2}, LevelBW: []float64{3e12, 1.5e12, 1.5e12},
		IOCs: 4, IOCBW: 128e9, LinkLatency: 20e-9,
	})
	if got := len(ft.AliveNPUs()); got != ft.NPUCount() {
		t.Fatalf("healthy tree: %d alive NPUs, want %d", got, ft.NPUCount())
	}
	net3.Link(ft.npuDown[5]).Fail()
	alive = ft.AliveNPUs()
	if len(alive) != ft.NPUCount()-1 {
		t.Fatalf("tree: %d alive, want %d", len(alive), ft.NPUCount()-1)
	}
	for _, i := range alive {
		if i == 5 {
			t.Fatal("tree: NPU with a failed port still reported alive")
		}
	}
}
