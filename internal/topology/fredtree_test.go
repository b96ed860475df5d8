package topology

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// The TestFredTree* tests cover FRED fabrics taller than the Table 5
// variants' two levels.

// threeLevel builds a 64-NPU, 3-level fabric: 4 NPUs per leaf (16
// leaves), 4 leaves per mid switch (4 mids), one root.
func threeLevel() *FredFabric {
	return NewFredFabric(netsim.New(sim.NewScheduler()), FredConfig{
		NPUs:        64,
		FanIn:       []int{4, 4, 4},
		LevelBW:     []float64{3e12, 12e12, 48e12},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
		InNetwork:   true,
	})
}

func TestFredTreeShape(t *testing.T) {
	tr := threeLevel()
	if tr.Levels() != 3 {
		t.Fatalf("levels = %d", tr.Levels())
	}
	if tr.NPUCount() != 64 || tr.IOCCount() != 18 {
		t.Fatalf("NPUs %d, IOCs %d", tr.NPUCount(), tr.IOCCount())
	}
	if got := tr.L1Count(); got != 16 {
		t.Fatalf("leaf switches = %d, want 16", got)
	}
	if got := len(tr.levels[1].up); got != 4 {
		t.Fatalf("mid switches = %d, want 4", got)
	}
	// 64 NPU, 16 leaf and 4 mid links each way, plus 18 controllers'.
	if got := tr.Network().NumLinks(); got != 2*(64+16+4+18) {
		t.Fatalf("%d links, want %d (one root)", got, 2*(64+16+4+18))
	}
}

func TestFredTreeTwoLevelMatchesFabric(t *testing.T) {
	// A 2-level fabric spelled out with the Fred-D parameters must
	// report the same bisection as the Table 5 variant.
	tr := NewFredFabric(netsim.New(sim.NewScheduler()), FredConfig{
		NPUs:        20,
		FanIn:       []int{4, 5},
		LevelBW:     []float64{3e12, 12e12},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
		InNetwork:   true,
	})
	fd := NewFredVariant(netsim.New(sim.NewScheduler()), FredD)
	if tr.BisectionBW() != fd.BisectionBW() {
		t.Fatalf("tree bisection %g vs fabric %g", tr.BisectionBW(), fd.BisectionBW())
	}
	if tr.StreamUtilization() != 1 {
		t.Fatalf("stream util %g", tr.StreamUtilization())
	}
}

func TestFredTreeConfigValidation(t *testing.T) {
	ok := FredConfig{NPUs: 4, FanIn: []int{4}, LevelBW: []float64{1}, IOCs: 1, IOCBW: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("1-level config rejected: %v", err)
	}
	bad := []FredConfig{
		{NPUs: 0, FanIn: []int{4}, LevelBW: []float64{1}},
		{NPUs: 4, FanIn: []int{4}, LevelBW: []float64{1, 2}},
		{NPUs: 4, FanIn: nil, LevelBW: nil},
		{NPUs: 100, FanIn: []int{4, 4}, LevelBW: []float64{1, 1}}, // capacity 16 < 100
		{NPUs: 4, FanIn: []int{0}, LevelBW: []float64{1}},
	}
	for i, cfg := range bad {
		cfg.IOCs, cfg.IOCBW = 1, 1
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d validated: %+v", i, cfg)
		}
	}
	// Variant configurations with one bad field each.
	for i, mutate := range []func(*FredConfig){
		func(c *FredConfig) { c.IOCs = 0 }, // NearestIOC would divide by zero
		func(c *FredConfig) { c.LevelBW[1] = math.NaN() },
		func(c *FredConfig) { c.LevelBW[0] = math.Inf(1) },
		func(c *FredConfig) { c.IOCBW = 0 },
		func(c *FredConfig) { c.LinkLatency = -1 },
		func(c *FredConfig) { c.LinkLatency = math.Inf(1) },
		func(c *FredConfig) { c.FanIn = []int{4611686018427387905, 4} }, // product wraps int
	} {
		cfg := FredVariantConfig(FredD)
		mutate(&cfg)
		var ce *configError
		if err := cfg.Validate(); !errors.As(err, &ce) {
			t.Errorf("mutation %d: Validate = %v, want a *configError", i, err)
		}
	}
}

func TestFredTreeRoutesConnected(t *testing.T) {
	tr := threeLevel()
	net := tr.Network()
	f := func(a, b uint8) bool {
		src, dst := int(a)%64, int(b)%64
		route := tr.Route(src, dst)
		if src == dst {
			return len(route) == 0
		}
		cur := tr.npus[src]
		for _, id := range route {
			l := net.Link(id)
			if l.Src != cur {
				return false
			}
			cur = l.Dst
		}
		return cur == tr.npus[dst]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFredTreeRouteLengths(t *testing.T) {
	tr := threeLevel()
	cases := []struct {
		src, dst, hops int
	}{
		{0, 3, 2},   // same leaf
		{0, 4, 4},   // same mid, different leaves
		{0, 63, 6},  // across the root
		{16, 17, 2}, // same leaf again
	}
	for _, c := range cases {
		if got := len(tr.Route(c.src, c.dst)); got != c.hops {
			t.Errorf("Route(%d,%d) = %d hops, want %d", c.src, c.dst, got, c.hops)
		}
	}
}

func TestFredTreeLoadTreeReachesAll(t *testing.T) {
	tr := threeLevel()
	net := tr.Network()
	for ioc := 0; ioc < tr.IOCCount(); ioc += 5 {
		reached := map[netsim.NodeID]bool{}
		for _, id := range tr.IOCLoadTree(ioc) {
			reached[net.Link(id).Dst] = true
		}
		for i, n := range tr.npus {
			if !reached[n] {
				t.Fatalf("ioc %d misses NPU %d", ioc, i)
			}
		}
	}
}

func TestFredTreeStoreTreeDrainsAll(t *testing.T) {
	tr := threeLevel()
	net := tr.Network()
	srcs := map[netsim.NodeID]bool{}
	for _, id := range tr.IOCStoreTree(3) {
		srcs[net.Link(id).Src] = true
	}
	for i, n := range tr.npus {
		if !srcs[n] {
			t.Fatalf("store tree misses NPU %d", i)
		}
	}
}

func TestFredTreeInNetworkAllReduceLinks(t *testing.T) {
	tr := threeLevel()
	// treeLinks collects, per level below the group's lowest common
	// switch, the distinct up and down links of the members' paths:
	// the links an in-network reduction tree over the group occupies.
	treeLinks := func(group []int) map[netsim.LinkID]bool {
		links := map[netsim.LinkID]bool{}
		for k := 0; k < tr.Levels(); k++ {
			shared := true
			for _, m := range group {
				shared = shared && k > 0 && tr.UpLink(m, k) == tr.UpLink(group[0], k)
			}
			if shared {
				break
			}
			for _, m := range group {
				links[tr.UpLink(m, k)], links[tr.DownLink(m, k)] = true, true
			}
		}
		return links
	}
	// Group under one leaf: only NPU links, no switch trunks.
	if links := treeLinks([]int{0, 1, 2, 3}); len(links) != 8 {
		t.Fatalf("leaf-local group uses %d links, want 8", len(links))
	}
	// Group across the root: NPU links + leaf and mid trunks both ways.
	// 2 NPUs × 2 + 2 leaves × 2 + 2 mids × 2 = 12.
	if links := treeLinks([]int{0, 63}); len(links) != 12 {
		t.Fatalf("cross-root pair uses %d links, want 12", len(links))
	}
}

func TestFredTreeIOCRoutesValid(t *testing.T) {
	tr := threeLevel()
	net := tr.Network()
	for _, npu := range []int{0, 17, 42, 63} {
		ioc := tr.NearestIOC(npu)
		down := tr.IOCToNPU(ioc, npu)
		if net.Link(down[len(down)-1]).Dst != tr.npus[npu] {
			t.Fatalf("IOCToNPU(%d,%d) wrong endpoint", ioc, npu)
		}
		up := tr.NPUToIOC(npu, ioc)
		if net.Link(up[0]).Src != tr.npus[npu] {
			t.Fatalf("NPUToIOC wrong start")
		}
		if net.Link(up[len(up)-1]).Dst != tr.iocs[ioc].node {
			t.Fatalf("NPUToIOC wrong endpoint")
		}
	}
}

func TestFredTreeIsWafer(t *testing.T) {
	var w Wafer = threeLevel()
	if w.NPUCount() != 64 || w.BisectionBW() != 4*48e12/2 {
		t.Fatalf("3-level wafer: %d NPUs, bisection %g", w.NPUCount(), w.BisectionBW())
	}
}
