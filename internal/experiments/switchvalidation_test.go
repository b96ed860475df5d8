package experiments

import (
	"fmt"
	"testing"

	"github.com/wafernet/fred/internal/fred"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/placement"
	"github.com/wafernet/fred/internal/topology"
)

// validateFabricRouting checks that the concurrent communication
// phases a 3D strategy generates on the 20-NPU FRED fabric are
// routable on the actual switch micro-architecture — connecting the
// timing simulator (which assumes nonblocking switches) back to the
// Fred_3(P) routing protocol that justifies the assumption.
//
// Leaf model: a Fred_3(8) with ports 0-3 carrying the four local NPUs
// and ports 4-7 carrying per-collective trunk slices toward the root.
// For each class phase (MP, then DP, then PP — the §5.4 arbiter runs
// one class at a time), every group with members under a leaf
// contributes an up-flow (reduce members → its trunk slice) and a
// down-flow (trunk slice → members). Root model: a Fred_3(10) whose
// port g·5+l carries group g's slice from leaf l, validated with one
// all-reduce flow per group.
func validateFabricRouting(s *Session, strat parallelism.Strategy) error {
	f := s.Build(FredD).(*topology.FredFabric)
	p := placement.Consecutive(strat)

	classes := map[string][][]int{
		"MP": strat.MPGroups(),
		"DP": strat.DPGroups(),
		"PP": strat.PPGroups(),
	}
	for class, groups := range classes {
		// Per-leaf flow sets for this class's concurrent phase.
		for l1 := 0; l1 < f.L1Count(); l1++ {
			var flows []fred.Flow
			trunk := 4 // next free trunk slice port
			for _, g := range groups {
				if len(g) < 2 {
					continue
				}
				var local []int
				crossesRoot := false
				for _, rank := range g {
					npu := p[rank]
					if f.L1Of(npu) == l1 {
						local = append(local, npu-l1*4) // local port 0-3
					} else {
						crossesRoot = true
					}
				}
				if len(local) == 0 {
					continue
				}
				if !crossesRoot {
					// Leaf-local collective: one all-reduce flow.
					flows = append(flows, fred.AllReduce(local))
					continue
				}
				if trunk > 7 {
					return fmt.Errorf("%s phase of %v needs more than 4 trunk slices at leaf %d", class, strat, l1)
				}
				flows = append(flows,
					fred.Flow{IPs: local, OPs: []int{trunk}, Label: class + "-up"},
					fred.Flow{IPs: []int{trunk}, OPs: local, Label: class + "-down"},
				)
				trunk++
			}
			if len(flows) == 0 {
				continue
			}
			ic := fred.NewInterconnect(3, 8)
			if _, err := ic.Route(flows); err != nil {
				return fmt.Errorf("%s phase of %v unroutable at leaf %d: %w", class, strat, l1, err)
			}
		}
		// Root switch: one slice port per (group, leaf) pair; validate
		// each group's cross-leaf all-reduce flow.
		var rootFlows []fred.Flow
		slice := 0
		for _, g := range groups {
			leaves := map[int]bool{}
			for _, rank := range g {
				leaves[f.L1Of(p[rank])] = true
			}
			if len(leaves) < 2 {
				continue
			}
			ports := make([]int, 0, len(leaves))
			for range leaves {
				ports = append(ports, slice)
				slice++
			}
			rootFlows = append(rootFlows, fred.AllReduce(ports))
		}
		if len(rootFlows) > 0 {
			if slice > 20 {
				return fmt.Errorf("%s phase of %v needs %d root ports", class, strat, slice)
			}
			ic := fred.NewInterconnect(3, slice)
			if slice < 2 {
				continue
			}
			if _, err := ic.Route(rootFlows); err != nil {
				return fmt.Errorf("%s phase of %v unroutable at root: %w", class, strat, err)
			}
		}
	}
	return nil
}

func TestValidateFabricRoutingAllStrategies(t *testing.T) {
	// Section 5.3's claim, end to end: with m=3 switches and the
	// consecutive placement, every strategy in the evaluation sweeps
	// generates communication phases the switches can route.
	for _, s := range transformerStrategies() {
		if err := validateFabricRouting(NewSession(), s); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
	for _, s := range t1tStrategies() {
		if err := validateFabricRouting(NewSession(), s); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
	for _, s := range parallelism.EnumerateExact(20) {
		if err := validateFabricRouting(NewSession(), s); err != nil {
			t.Errorf("%v: %v", s, err)
		}
	}
}
