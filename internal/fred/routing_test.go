package fred

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRouteSingleUnicast(t *testing.T) {
	ic := NewInterconnect(2, 8)
	plan := ic.MustRoute([]Flow{Unicast(0, 7)})
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if plan.ActiveReductions() != 0 || plan.ActiveDistributions() != 0 {
		t.Fatal("unicast must not activate reduce/distribute features")
	}
}

func TestRouteFigure7hTwoAllReduces(t *testing.T) {
	// Figure 7(h): Fred_2(8) routing two concurrent All-Reduce flows.
	ic := NewInterconnect(2, 8)
	plan := ic.MustRoute([]Flow{
		AllReduce([]int{0, 1, 2}), // green
		AllReduce([]int{3, 4, 5}), // orange
	})
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	// The orange flow includes the input µswitch over ports 4,5 which
	// must reduce, so reductions are active somewhere.
	if plan.ActiveReductions() == 0 {
		t.Fatal("all-reduce plan activated no reductions")
	}
	if plan.ActiveDistributions() == 0 {
		t.Fatal("all-reduce plan activated no distributions")
	}
}

func TestRouteFigure7iThreeFlows(t *testing.T) {
	// Figure 7(i): three conflicting-but-colorable All-Reduces on
	// Fred_2(8): the conflict graph is a path, 2-colorable.
	ic := NewInterconnect(2, 8)
	plan, err := ic.Route([]Flow{
		AllReduce([]int{1, 2}), // shares µswitch 1 with the next
		AllReduce([]int{3, 4}), // shares µswitch 2 with the next
		AllReduce([]int{5, 6}),
	})
	if err != nil {
		t.Fatalf("Figure 7(i) flows failed to route: %v", err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	// Adjacent flows must land in different middle subnetworks.
	level0 := map[int]int{}
	for _, a := range plan.Assignments {
		if a.Level == 0 {
			level0[a.Flow] = a.Color
		}
	}
	if level0[0] == level0[1] || level0[1] == level0[2] {
		t.Fatalf("conflicting flows share a middle subnetwork: %v", level0)
	}
}

func TestRouteFigure7jConflict(t *testing.T) {
	// Figure 7(j): four flows whose conflict graph contains a triangle
	// among flows 0,1,2 — uncolorable with m=2, routable with m=3
	// (footnote 3: "Fred_3(8) can route all the flows in Figure 7(j)").
	flows := []Flow{
		AllReduce([]int{1, 2}), // µswitches 0,1
		AllReduce([]int{3, 4}), // µswitches 1,2
		AllReduce([]int{0, 5}), // µswitches 0,2 — closes the triangle
		AllReduce([]int{6, 7}), // independent
	}
	ic2 := NewInterconnect(2, 8)
	_, err := ic2.Route(flows)
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("Fred_2(8) routed the Figure 7(j) flows (err=%v), want ConflictError", err)
	}
	if conflict.M != 2 || conflict.Level != 0 {
		t.Fatalf("conflict = %+v", conflict)
	}

	ic3 := NewInterconnect(3, 8)
	plan, err := ic3.Route(flows)
	if err != nil {
		t.Fatalf("Fred_3(8) failed on Figure 7(j) flows: %v", err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRouteRejectsOverlappingFlows(t *testing.T) {
	ic := NewInterconnect(2, 8)
	if _, err := ic.Route([]Flow{AllReduce([]int{0, 1, 2}), AllReduce([]int{2, 3})}); err == nil {
		t.Fatal("flows sharing port 2 routed without error")
	}
	if _, err := ic.Route([]Flow{Unicast(0, 3), Unicast(1, 3)}); err == nil {
		t.Fatal("flows sharing output port 3 routed without error")
	}
	if _, err := ic.Route([]Flow{Unicast(0, 9)}); err == nil {
		t.Fatal("out-of-range port routed without error")
	}
	if _, err := ic.Route([]Flow{{IPs: []int{0, 0}, OPs: []int{1}}}); err == nil {
		t.Fatal("duplicated input port routed without error")
	}
	if _, err := ic.Route([]Flow{{IPs: []int{0}, OPs: nil}}); err == nil {
		t.Fatal("empty OPs routed without error")
	}
}

func TestRoutePermutationsRearrangeable(t *testing.T) {
	// m = 2 is rearrangeably nonblocking for unicast (Section 5.3
	// option 3): every full permutation must route.
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{2, 3, 4, 5, 6, 7, 8, 11, 12, 16} {
		ic := NewInterconnect(2, p)
		for trial := 0; trial < 20; trial++ {
			perm := rng.Perm(p)
			flows := make([]Flow, p)
			for i, dst := range perm {
				flows[i] = Unicast(i, dst)
			}
			plan, err := ic.Route(flows)
			if err != nil {
				t.Fatalf("P=%d: permutation %v failed: %v", p, perm, err)
			}
			if err := plan.Verify(); err != nil {
				t.Fatalf("P=%d: permutation %v mis-evaluated: %v", p, perm, err)
			}
		}
	}
}

func TestRouteWaferWideAllReduce(t *testing.T) {
	// A single all-reduce across every port — the wafer-wide DP case.
	for _, p := range []int{4, 8, 11, 12} {
		ic := NewInterconnect(3, p)
		ports := make([]int, p)
		for i := range ports {
			ports[i] = i
		}
		plan := ic.MustRoute([]Flow{AllReduce(ports)})
		if err := plan.Verify(); err != nil {
			t.Fatalf("P=%d wafer-wide all-reduce: %v", p, err)
		}
	}
}

func TestRouteOddPortParticipates(t *testing.T) {
	// The demuxed last port of an odd switch can source and sink flows.
	ic := NewInterconnect(3, 11)
	plan := ic.MustRoute([]Flow{
		AllReduce([]int{8, 9, 10}),
		AllReduce([]int{0, 1, 2, 3}),
	})
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRouteAsymmetricFlow(t *testing.T) {
	// IPs and OPs chosen independently: reduce ports {0,1,2} and
	// multicast the result to {5,6,7}.
	ic := NewInterconnect(2, 8)
	plan := ic.MustRoute([]Flow{{IPs: []int{0, 1, 2}, OPs: []int{5, 6, 7}}})
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestRoute3DParallelismWithConsecutivePlacement(t *testing.T) {
	// Section 5.3: with m=3 and MP-consecutive placement, the MP flows
	// of a 3D strategy route conflict-free. MP(4) groups over 12 ports:
	// three concurrent all-reduces on {0..3},{4..7},{8..11}.
	ic := NewInterconnect(3, 12)
	plan := ic.MustRoute([]Flow{
		AllReduce([]int{0, 1, 2, 3}),
		AllReduce([]int{4, 5, 6, 7}),
		AllReduce([]int{8, 9, 10, 11}),
	})
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	// Mixed concurrent DP all-reduces (stride groups) also route on m=3.
	plan2, err := ic.Route([]Flow{
		AllReduce([]int{0, 4, 8}),
		AllReduce([]int{1, 5, 9}),
		AllReduce([]int{2, 6, 10}),
		AllReduce([]int{3, 7, 11}),
	})
	if err != nil {
		t.Fatalf("strided DP all-reduces failed: %v", err)
	}
	if err := plan2.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestColorGraphExactness(t *testing.T) {
	// A 5-cycle needs 3 colors; greedy orderings can fail with 3 but
	// exact search must succeed, and must prove 2 impossible.
	adj := make([][]bool, 5)
	for i := range adj {
		adj[i] = make([]bool, 5)
	}
	for i := 0; i < 5; i++ {
		j := (i + 1) % 5
		adj[i][j] = true
		adj[j][i] = true
	}
	if _, ok := colorGraph(adj, 2); ok {
		t.Fatal("2-colored an odd cycle")
	}
	colors, ok := colorGraph(adj, 3)
	if !ok {
		t.Fatal("failed to 3-color a 5-cycle")
	}
	for i := 0; i < 5; i++ {
		if colors[i] == colors[(i+1)%5] {
			t.Fatal("adjacent vertices share a color")
		}
	}
}

// Property: any set of disjoint random flows either fails with a
// ConflictError or produces a plan whose data plane verifies.
func TestPropertyRouteOrConflict(t *testing.T) {
	f := func(seed int64, pSel, mSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := []int{4, 6, 8, 11, 12, 16}[int(pSel)%6]
		m := 2 + int(mSel)%2
		ic := NewInterconnect(m, p)

		// Random disjoint IP groups and independent disjoint OP groups.
		inPerm := rng.Perm(p)
		outPerm := rng.Perm(p)
		var flows []Flow
		i, o := 0, 0
		for i < p && o < p {
			ni := rng.Intn(3) + 1
			no := rng.Intn(3) + 1
			if i+ni > p {
				ni = p - i
			}
			if o+no > p {
				no = p - o
			}
			flows = append(flows, Flow{
				IPs: append([]int(nil), inPerm[i:i+ni]...),
				OPs: append([]int(nil), outPerm[o:o+no]...),
			})
			i += ni
			o += no
		}
		plan, err := ic.Route(flows)
		if err != nil {
			var conflict *ConflictError
			return errors.As(err, &conflict)
		}
		return plan.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: all-reduce flows over disjoint contiguous groups (the
// FRED placement policy) always route on m=3, for any group sizes.
func TestPropertyConsecutiveGroupsRouteOnM3(t *testing.T) {
	f := func(seed int64, pSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := []int{8, 12, 16, 11}[int(pSel)%4]
		ic := NewInterconnect(3, p)
		var flows []Flow
		start := 0
		for start < p {
			size := rng.Intn(4) + 1
			if start+size > p {
				size = p - start
			}
			ports := make([]int, size)
			for k := range ports {
				ports[k] = start + k
			}
			flows = append(flows, AllReduce(ports))
			start += size
		}
		plan, err := ic.Route(flows)
		if err != nil {
			return false
		}
		return plan.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanStringMentionsFeatures(t *testing.T) {
	ic := NewInterconnect(2, 8)
	plan := ic.MustRoute([]Flow{AllReduce([]int{3, 4, 5})})
	s := plan.String()
	if s == "" {
		t.Fatal("empty plan rendering")
	}
}
