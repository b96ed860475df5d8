package topology

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

func newTestFabric(v FredVariant) *FredFabric {
	return NewFredVariant(netsim.New(sim.NewScheduler()), v)
}

func TestFredVariantTable5(t *testing.T) {
	cases := []struct {
		v         FredVariant
		bisection float64
		inNetwork bool
	}{
		{FredA, 3.75e12, false},
		{FredB, 3.75e12, true},
		{FredC, 30e12, false},
		{FredD, 30e12, true},
	}
	for _, c := range cases {
		f := newTestFabric(c.v)
		if got := f.BisectionBW(); got != c.bisection {
			t.Errorf("%s bisection = %g, want %g", c.v, got, c.bisection)
		}
		if f.InNetwork() != c.inNetwork {
			t.Errorf("%s InNetwork = %v", c.v, f.InNetwork())
		}
		if f.NPUCount() != 20 || f.IOCCount() != 18 {
			t.Errorf("%s has %d NPUs, %d IOCs", c.v, f.NPUCount(), f.IOCCount())
		}
		if f.L1Count() != 5 {
			t.Errorf("%s has %d L1 switches, want 5", c.v, f.L1Count())
		}
	}
}

func TestFredUnknownVariantPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown variant did not panic")
		}
	}()
	FredVariantConfig("Fred-Z")
}

func TestFredL1Assignment(t *testing.T) {
	f := newTestFabric(FredD)
	for npu := 0; npu < 20; npu++ {
		if got, want := f.L1Of(npu), npu/4; got != want {
			t.Fatalf("L1Of(%d) = %d, want %d", npu, got, want)
		}
	}
}

func TestFredRouteSameL1TwoHops(t *testing.T) {
	f := newTestFabric(FredD)
	r := f.Route(0, 3) // both under L1 0
	if len(r) != 2 {
		t.Fatalf("same-L1 route has %d links, want 2", len(r))
	}
	if r[0] != f.UpLink(0, 0) || r[1] != f.DownLink(3, 0) {
		t.Fatal("same-L1 route does not use up/down links")
	}
}

func TestFredRouteCrossL1FourHops(t *testing.T) {
	f := newTestFabric(FredD)
	r := f.Route(0, 19)
	if len(r) != 4 {
		t.Fatalf("cross-L1 route has %d links, want 4", len(r))
	}
	want := []netsim.LinkID{f.UpLink(0, 0), f.L1UpLink(0), f.L1DownLink(4), f.DownLink(19, 0)}
	for i := range want {
		if r[i] != want[i] {
			t.Fatalf("cross-L1 route hop %d = %v, want %v", i, r[i], want[i])
		}
	}
}

func TestFredRouteSelfEmpty(t *testing.T) {
	f := newTestFabric(FredD)
	if r := f.Route(5, 5); len(r) != 0 {
		t.Fatalf("self route has %d links", len(r))
	}
}

func TestFredLoadTreeReachesAllNPUs(t *testing.T) {
	f := newTestFabric(FredD)
	net := f.Network()
	for ioc := 0; ioc < f.IOCCount(); ioc++ {
		reached := make(map[netsim.NodeID]bool)
		for _, id := range f.IOCLoadTree(ioc) {
			reached[net.Link(id).Dst] = true
		}
		for i, n := range f.npus {
			if !reached[n] {
				t.Fatalf("ioc %d load tree misses NPU %d", ioc, i)
			}
		}
	}
}

func TestFredStoreTreeDrainsAllNPUs(t *testing.T) {
	f := newTestFabric(FredD)
	net := f.Network()
	for ioc := 0; ioc < f.IOCCount(); ioc++ {
		srcs := make(map[netsim.NodeID]bool)
		var endsAtIOC bool
		for _, id := range f.IOCStoreTree(ioc) {
			srcs[net.Link(id).Src] = true
			if net.Link(id).Dst == f.iocs[ioc].node {
				endsAtIOC = true
			}
		}
		for i, n := range f.npus {
			if !srcs[n] {
				t.Fatalf("ioc %d store tree misses NPU %d", ioc, i)
			}
		}
		if !endsAtIOC {
			t.Fatalf("ioc %d store tree does not end at the controller", ioc)
		}
	}
}

func TestFredStreamUtilizationFullRate(t *testing.T) {
	// Fred-C/D: 18×128 GB/s = 2.304 TB/s fits in a 12 TB/s L1-L2 link.
	f := newTestFabric(FredD)
	if got := f.StreamUtilization(); got != 1 {
		t.Fatalf("Fred-D StreamUtilization = %g, want 1", got)
	}
	// Fred-A/B: 2.304 TB/s over 1.5 TB/s links → 0.651.
	a := newTestFabric(FredA)
	got := a.StreamUtilization()
	if got < 0.64 || got > 0.66 {
		t.Fatalf("Fred-A StreamUtilization = %g, want ≈ 0.651", got)
	}
}

func TestFredStreamUtilizationSimulated(t *testing.T) {
	// All 18 controllers streaming through Fred-D must each sustain
	// full line rate (the trees overlap only on huge L1-L2 links).
	s := sim.NewScheduler()
	net := netsim.New(s)
	f := NewFredVariant(net, FredD)
	var flows []*netsim.Flow
	for ioc := 0; ioc < f.IOCCount(); ioc++ {
		flows = append(flows, net.StartFlow(netsim.FlowSpec{
			Links: f.IOCLoadTree(ioc), Bytes: 1e15, Latency: 0,
		}))
	}
	s.RunUntil(0)
	for i, fl := range flows {
		if fl.Rate() < 128e9*0.999 {
			t.Fatalf("controller %d streams at %g, want ≥ 128 GB/s", i, fl.Rate())
		}
	}
	for _, fl := range flows {
		fl.Cancel()
	}
}

func TestFredNearestIOCUnderOwnL1(t *testing.T) {
	f := newTestFabric(FredD)
	for npu := 0; npu < 20; npu++ {
		ioc := f.NearestIOC(npu)
		if f.iocs[ioc].l1 != f.L1Of(npu) {
			t.Fatalf("NearestIOC(%d) = %d under L1 %d, want L1 %d",
				npu, ioc, f.iocs[ioc].l1, f.L1Of(npu))
		}
	}
}

// TestFredNearestIOCMatchesCandidateList checks NearestIOC against the
// list-based rule it replaced (collect the L1's controllers, index the
// list by npu mod its length; any controller when the list is empty)
// on every NPU of the Table 5 variants, a 3-level fabric and a Fred-D
// with L1s left without a controller, and that it allocates nothing.
func TestFredNearestIOCMatchesCandidateList(t *testing.T) {
	want := func(f *FredFabric, npu int) int {
		var candidates []int
		for i, c := range f.iocs {
			if c.l1 == f.L1Of(npu) {
				candidates = append(candidates, i)
			}
		}
		if len(candidates) == 0 {
			return npu % len(f.iocs)
		}
		return candidates[npu%len(candidates)]
	}
	sparse := FredVariantConfig(FredD)
	sparse.IOCs = 2
	fabrics := []*FredFabric{threeLevel(), NewFredFabric(netsim.New(sim.NewScheduler()), sparse)}
	for _, v := range []FredVariant{FredA, FredB, FredC, FredD} {
		fabrics = append(fabrics, newTestFabric(v))
	}
	for _, f := range fabrics {
		for npu := 0; npu < f.NPUCount(); npu++ {
			if got, w := f.NearestIOC(npu), want(f, npu); got != w {
				t.Fatalf("%s: NearestIOC(%d) = %d, want %d", f.Name(), npu, got, w)
			}
		}
		last := f.NPUCount() - 1
		if allocs := testing.AllocsPerRun(100, func() { f.NearestIOC(last) }); allocs != 0 {
			t.Fatalf("%s: NearestIOC allocates %v objects per call, want 0", f.Name(), allocs)
		}
	}
}

func TestFredIOCRoutesValid(t *testing.T) {
	f := newTestFabric(FredC)
	net := f.Network()
	for ioc := 0; ioc < f.IOCCount(); ioc += 5 {
		for npu := 0; npu < 20; npu += 7 {
			down := f.IOCToNPU(ioc, npu)
			if net.Link(down[len(down)-1]).Dst != f.npus[npu] {
				t.Fatalf("IOCToNPU(%d,%d) wrong endpoint", ioc, npu)
			}
			up := f.NPUToIOC(npu, ioc)
			if net.Link(up[0]).Src != f.npus[npu] {
				t.Fatalf("NPUToIOC(%d,%d) wrong start", npu, ioc)
			}
			if net.Link(up[len(up)-1]).Dst != f.iocs[ioc].node {
				t.Fatalf("NPUToIOC(%d,%d) wrong endpoint", npu, ioc)
			}
		}
	}
}

func TestFredBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero NPUs did not panic")
		}
	}()
	NewFredFabric(netsim.New(sim.NewScheduler()), FredConfig{})
}

// Property: routes are connected paths from src to dst for all NPU
// pairs on all variants.
func TestPropertyFredRoutesConnected(t *testing.T) {
	fabrics := []*FredFabric{newTestFabric(FredA), newTestFabric(FredD)}
	f := func(a, b, which uint8) bool {
		fab := fabrics[int(which)%2]
		net := fab.Network()
		src, dst := int(a)%20, int(b)%20
		route := fab.Route(src, dst)
		if src == dst {
			return len(route) == 0
		}
		cur := fab.npus[src]
		for _, id := range route {
			l := net.Link(id)
			if l.Src != cur {
				return false
			}
			cur = l.Dst
		}
		return cur == fab.npus[dst]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWaferInterfaceCompliance(t *testing.T) {
	var _ Wafer = (*Mesh)(nil)
	var _ Wafer = (*FredFabric)(nil)
	m := newTestMesh()
	fd := newTestFabric(FredD)
	for _, w := range []Wafer{m, fd} {
		if got := float64(w.IOCCount()) * w.IOCBW(); got != 18*128e9 {
			t.Fatalf("%T total I/O bandwidth = %g", w, got)
		}
	}
	if m.NPUPortBW() != 3e12 {
		t.Fatalf("mesh NPUPortBW = %g, want 3 TB/s", m.NPUPortBW())
	}
	if fd.NPUPortBW() != 3e12 {
		t.Fatalf("fred NPUPortBW = %g, want 3 TB/s", fd.NPUPortBW())
	}
}

func TestRouteLatencies(t *testing.T) {
	f := newTestFabric(topFredD())
	if got := f.RouteLatency(0, 0); got != 0 {
		t.Fatalf("self latency %g", got)
	}
	if got := f.RouteLatency(0, 1); got != 2*20e-9 {
		t.Fatalf("same-leaf latency %g, want 2 hops", got)
	}
	if got := f.RouteLatency(0, 19); got != 4*20e-9 {
		t.Fatalf("cross-root latency %g, want 4 hops", got)
	}
	m := newTestMesh()
	if got := m.RouteLatency(0, 7); got != float64(m.Distance(0, 7))*20e-9 {
		t.Fatalf("mesh route latency %g", got)
	}
	tr := NewFredFabric(netsim.New(sim.NewScheduler()), FredConfig{
		NPUs: 16, FanIn: []int{4, 4}, LevelBW: []float64{3e12, 12e12},
		IOCs: 4, IOCBW: 128e9, LinkLatency: 20e-9,
	})
	if got := tr.RouteLatency(0, 15); got != 4*20e-9 {
		t.Fatalf("tree cross latency %g", got)
	}
	if got := tr.RouteLatency(0, 1); got != 2*20e-9 {
		t.Fatalf("tree leaf latency %g", got)
	}
}

func topFredD() FredVariant { return FredD }

// FuzzFredConfig requires Validate to return nil or a *configError,
// never panic, and every configuration it accepts to build a fabric
// that routes each NPU pair along connected links and serves each NPU
// from a controller in range. Levels takes the first 1+nlevels%3 of
// the fan-ins and bandwidths. A fabric is built only for small accepted
// configurations, so no input allocates a huge one.
//
// Explore with: go test -run='^$' -fuzz=FuzzFredConfig ./internal/topology
func FuzzFredConfig(f *testing.F) {
	add := func(c FredConfig) {
		fan := append(append([]int(nil), c.FanIn...), 0, 0, 0)
		bw := append(append([]float64(nil), c.LevelBW...), 0, 0, 0)
		f.Add(c.NPUs, uint8(len(c.FanIn)+2), fan[0], fan[1], fan[2], bw[0], bw[1], bw[2], c.IOCs, c.IOCBW, c.LinkLatency)
	}
	add(FredVariantConfig(FredA))
	d := FredVariantConfig(FredD)
	add(FredConfig{NPUs: 64, FanIn: []int{4, 4, 4}, LevelBW: []float64{3e12, 12e12, 48e12}, IOCs: 18, IOCBW: 128e9, LinkLatency: 20e-9})
	add(FredConfig{NPUs: 3, FanIn: []int{4}, LevelBW: []float64{3e12}, IOCs: 2, IOCBW: 1e9})
	// No controllers: NearestIOC used to divide by zero.
	d.IOCs = 0
	add(d)
	// Bandwidths and latencies that are not finite, or out of range.
	for _, bw := range []float64{math.NaN(), math.Inf(1), 0, -1} {
		d = FredVariantConfig(FredD)
		d.LevelBW[1] = bw
		add(d)
		d = FredVariantConfig(FredD)
		d.IOCBW = bw
		add(d)
	}
	for _, lat := range []float64{math.NaN(), math.Inf(1), -1} {
		d = FredVariantConfig(FredD)
		d.LinkLatency = lat
		add(d)
	}
	// A fan-in product that wraps int.
	add(FredConfig{NPUs: 20, FanIn: []int{4611686018427387905, 4}, LevelBW: []float64{1, 1}, IOCs: 1, IOCBW: 1})
	f.Fuzz(func(t *testing.T, npus int, nlevels uint8, f0, f1, f2 int, bw0, bw1, bw2 float64, iocs int, iocBW, lat float64) {
		n := 1 + int(nlevels)%3
		cfg := FredConfig{NPUs: npus, FanIn: []int{f0, f1, f2}[:n], LevelBW: []float64{bw0, bw1, bw2}[:n],
			IOCs: iocs, IOCBW: iocBW, LinkLatency: lat}
		err := cfg.Validate()
		var ce *configError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("Validate(%+v) = %v, want nil or *configError", cfg, err)
		}
		if err != nil || npus > 64 || iocs > 32 {
			return
		}
		fab := NewFredFabric(netsim.New(sim.NewScheduler()), cfg)
		net := fab.Network()
		for src := 0; src < npus; src++ {
			for dst := 0; dst < npus; dst++ {
				cur := fab.npus[src]
				for _, id := range fab.Route(src, dst) {
					if net.Link(id).Src != cur {
						t.Fatalf("%+v: route %d->%d is not connected", cfg, src, dst)
					}
					cur = net.Link(id).Dst
				}
				if cur != fab.npus[dst] {
					t.Fatalf("%+v: route %d->%d ends at node %d", cfg, src, dst, cur)
				}
			}
			if ioc := fab.NearestIOC(src); ioc < 0 || ioc >= iocs {
				t.Fatalf("%+v: NearestIOC(%d) = %d, want in [0, %d)", cfg, src, ioc, iocs)
			}
		}
	})
}
