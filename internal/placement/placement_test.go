package placement

import (
	"testing"
	"testing/quick"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

func TestIdentityValid(t *testing.T) {
	p := make(Placement, 20)
	for i := range p {
		p[i] = i
	}
	if err := p.Validate(20); err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(10); err == nil {
		t.Fatal("out-of-range placement validated")
	}
}

func TestValidateRejectsDuplicates(t *testing.T) {
	p := Placement{0, 1, 1}
	if err := p.Validate(4); err == nil {
		t.Fatal("duplicate NPU assignment validated")
	}
}

func TestConsecutiveKeepsMPGroupsContiguous(t *testing.T) {
	s := parallelism.Strategy{MP: 4, DP: 5, PP: 1}
	p := Consecutive(s)
	if err := p.Validate(20); err != nil {
		t.Fatal(err)
	}
	for _, g := range s.MPGroups() {
		npus := p.NPUs(g)
		for i := 1; i < len(npus); i++ {
			if npus[i] != npus[i-1]+1 {
				t.Fatalf("MP group not on consecutive NPUs: %v", npus)
			}
		}
	}
}

func TestConsecutiveIsIdentity(t *testing.T) {
	// Ranks already iterate MP fastest, then PP, then DP.
	s := parallelism.Strategy{MP: 2, DP: 5, PP: 2}
	p := Consecutive(s)
	for rank, npu := range p {
		if rank != npu {
			t.Fatalf("Consecutive placement maps rank %d to NPU %d", rank, npu)
		}
	}
}

func TestByDimOrderPanicsOnRepeat(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("repeated dim did not panic")
		}
	}()
	ByDimOrder(parallelism.Strategy{MP: 2, DP: 2, PP: 2}, [3]Dim{MP, MP, DP})
}

func TestByDimOrderFavoredDimAdjacent(t *testing.T) {
	// With DP fastest, DP peers occupy consecutive slots instead.
	s := parallelism.Strategy{MP: 2, DP: 4, PP: 2}
	p := ByDimOrder(s, [3]Dim{DP, MP, PP})
	for _, g := range s.DPGroups() {
		npus := p.NPUs(g)
		for i := 1; i < len(npus); i++ {
			if npus[i] != npus[i-1]+1 {
				t.Fatalf("DP group not contiguous under DP-first order: %v", npus)
			}
		}
	}
}

func newMesh44() *topology.Mesh {
	cfg := topology.DefaultMeshConfig()
	cfg.W, cfg.H = 4, 4
	return topology.NewMesh(netsim.New(sim.NewScheduler()), cfg)
}

func TestFigure5PlacementTradeoff(t *testing.T) {
	// Figure 5: MP(2)-DP(4)-PP(2) on a 4×4 mesh. An MP-first placement
	// and a DP-first placement must trade congestion between
	// dimensions: no placement is congestion-free everywhere on a mesh,
	// while FRED's fabric is congestion-free for both.
	s := parallelism.Strategy{MP: 2, DP: 4, PP: 2}
	m := newMesh44()

	mpFirst := Congestion(m, s, ByDimOrder(s, [3]Dim{MP, DP, PP}))
	dpFirst := Congestion(m, s, ByDimOrder(s, [3]Dim{DP, PP, MP}))

	// The placements must differ in which dimension they penalise.
	if mpFirst.MaxOverlap[MP] >= dpFirst.MaxOverlap[MP] {
		t.Errorf("MP-first placement does not favour MP: %v vs %v",
			mpFirst.MaxOverlap, dpFirst.MaxOverlap)
	}
	// Cross-dimension congestion exists on the mesh for both.
	if mpFirst.CrossOverlap < 2 && dpFirst.CrossOverlap < 2 {
		t.Errorf("expected link sharing on mesh: %+v %+v", mpFirst, dpFirst)
	}

	// FRED (in-network): within each dimension, every NPU injection
	// link carries at most one group's flow — each NPU's full port
	// bandwidth is usable for its group (the trunk L1↔L2 links are
	// shared by design; the switch itself is nonblocking). The mesh
	// cannot provide this for all three dimensions at once.
	net := netsim.New(sim.NewScheduler())
	fd := topology.NewFredVariant(net, topology.FredD)
	comm := collectiveComm(fd)
	cons := Consecutive(s)
	for dim, groups := range map[Dim][][]int{MP: s.MPGroups(), DP: s.DPGroups(), PP: s.PPGroups()} {
		perNPULink := map[netsim.LinkID]int{}
		npuLinks := map[netsim.LinkID]bool{}
		for npu := 0; npu < fd.NPUCount(); npu++ {
			npuLinks[fd.UpLink(npu, 0)] = true
			npuLinks[fd.DownLink(npu, 0)] = true
		}
		for _, g := range groups {
			if len(g) < 2 {
				continue
			}
			for l := range comm.AllReduce(cons.NPUs(g), 1).LinkBytes() {
				if npuLinks[l] {
					perNPULink[l]++
				}
			}
		}
		for l, c := range perNPULink {
			if c > 1 {
				t.Errorf("FRED %v: NPU link %d carries %d groups, want 1", dim, l, c)
			}
		}
	}
}

func TestNonAlignedStrategyCongestion(t *testing.T) {
	// Figure 6: MP(5)-DP(3)-PP(1) is non-aligned with a 4×4 mesh; DP
	// groups' logical rings overlap on links.
	s := parallelism.Strategy{MP: 5, DP: 3, PP: 1}
	m := newMesh44()
	rep := Congestion(m, s, MeshDefault(s))
	if rep.MaxOverlap[DP] < 2 {
		t.Fatalf("non-aligned DP groups show no link sharing: %+v", rep)
	}
}

func TestPropertyPlacementsAreBijections(t *testing.T) {
	f := func(a, b, c uint8, orderSel uint8) bool {
		s := parallelism.Strategy{MP: int(a%4) + 1, DP: int(b%4) + 1, PP: int(c%4) + 1}
		orders := [][3]Dim{
			{MP, DP, PP}, {MP, PP, DP}, {DP, MP, PP},
			{DP, PP, MP}, {PP, MP, DP}, {PP, DP, MP},
		}
		p := ByDimOrder(s, orders[int(orderSel)%6])
		return p.Validate(s.Workers()) == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// collectiveComm is a tiny indirection so the test reads naturally.
func collectiveComm(w topology.Wafer) *collective.Comm { return collective.NewComm(w) }
