// Package placement implements device placement — the assignment of
// logical training workers to physical NPUs (Section 3.2.2,
// Section 5.3 of the FRED paper) — and congestion scoring of
// placements on a topology.
package placement

import (
	"fmt"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/topology"
)

// Placement maps worker ranks to physical NPU indices.
type Placement []int

// Validate checks that the placement is an injection into [0, npus).
func (p Placement) Validate(npus int) error {
	seen := make(map[int]bool, len(p))
	for rank, npu := range p {
		if npu < 0 || npu >= npus {
			return fmt.Errorf("placement: rank %d on NPU %d, out of range [0,%d)", rank, npu, npus)
		}
		if seen[npu] {
			return fmt.Errorf("placement: NPU %d assigned twice", npu)
		}
		seen[npu] = true
	}
	return nil
}

// NPUs translates a slice of worker ranks into physical NPU indices.
func (p Placement) NPUs(ranks []int) []int {
	out := make([]int, len(ranks))
	for i, r := range ranks {
		out[i] = p[r]
	}
	return out
}

// Dim names one of the three parallelism dimensions.
type Dim int

// Parallelism dimensions.
const (
	MP Dim = iota
	DP
	PP
)

func (d Dim) String() string {
	switch d {
	case MP:
		return "MP"
	case DP:
		return "DP"
	case PP:
		return "PP"
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// ByDimOrder places workers by iterating the given dimensions
// fastest-first over consecutive physical NPU slots. The slot order is
// the natural index order; on a mesh, slot i is NPU i (row-major), so
// the fastest dimension's peers sit side by side — the mechanism by
// which a placement "favors" some communication types over others
// (Figure 5).
func ByDimOrder(s parallelism.Strategy, order [3]Dim) Placement {
	seen := map[Dim]bool{}
	for _, d := range order {
		if seen[d] {
			panic(fmt.Sprintf("placement: dimension %v repeated in order", d))
		}
		seen[d] = true
	}
	size := func(d Dim) int {
		switch d {
		case MP:
			return s.MP
		case DP:
			return s.DP
		default:
			return s.PP
		}
	}
	p := make(Placement, s.Workers())
	slot := 0
	coord := map[Dim]*int{}
	var a, b, c int
	coord[order[0]], coord[order[1]], coord[order[2]] = &a, &b, &c
	for c = 0; c < size(order[2]); c++ {
		for b = 0; b < size(order[1]); b++ {
			for a = 0; a < size(order[0]); a++ {
				w := parallelism.Worker{MP: *coord[MP], DP: *coord[DP], PP: *coord[PP]}
				p[s.Rank(w)] = slot
				slot++
			}
		}
	}
	return p
}

// Consecutive is FRED's device-placement policy (Section 5.3): workers
// of one MP group occupy consecutive NPUs, then iterate PP, then DP —
// which, combined with m=3 switches, prevents routing conflicts for 3D
// parallelism. Since parallelism ranks already iterate MP fastest,
// then PP, then DP, this is the identity placement.
func Consecutive(s parallelism.Strategy) Placement {
	return ByDimOrder(s, [3]Dim{MP, PP, DP})
}

// MeshDefault is the baseline placement used in the evaluation: it
// favors MP communication by keeping MP peers adjacent in row-major
// order ("the baseline device placement favors MP", Section 8.2).
func MeshDefault(s parallelism.Strategy) Placement {
	return ByDimOrder(s, [3]Dim{MP, PP, DP})
}

// CongestionReport summarises link sharing between the collective
// schedules of a strategy's groups under a placement.
type CongestionReport struct {
	// MaxOverlap is the maximum number of distinct group schedules
	// sharing one directed link, per dimension.
	MaxOverlap map[Dim]int
	// CrossOverlap is the maximum number of schedules sharing a link
	// counting all dimensions together.
	CrossOverlap int
}

// Congestion compiles a unit-byte collective for every MP, DP and PP
// group of the strategy and counts link sharing — the static measure
// behind Figure 5's "placement A congests PP, placement B congests MP"
// comparison.
func Congestion(w topology.Wafer, s parallelism.Strategy, p Placement) CongestionReport {
	comm := collective.NewComm(w)
	rep := CongestionReport{MaxOverlap: map[Dim]int{}}
	perLinkAll := map[netsim.LinkID]int{}
	count := func(groups [][]int, dim Dim, build func(g []int) collective.Schedule) {
		perLink := map[netsim.LinkID]int{}
		for _, g := range groups {
			if len(g) < 2 {
				continue
			}
			for l := range build(p.NPUs(g)).LinkBytes() {
				perLink[l]++
				perLinkAll[l]++
			}
		}
		max := 0
		for _, c := range perLink {
			if c > max {
				max = c
			}
		}
		rep.MaxOverlap[dim] = max
	}
	count(s.MPGroups(), MP, func(g []int) collective.Schedule { return comm.AllReduce(g, 1) })
	count(s.DPGroups(), DP, func(g []int) collective.Schedule { return comm.AllReduce(g, 1) })
	count(s.PPGroups(), PP, func(g []int) collective.Schedule {
		if len(g) < 2 {
			return collective.Schedule{}
		}
		var phases []collective.Phase
		for i := 0; i+1 < len(g); i++ {
			sub := comm.P2P(g[i], g[i+1], 1)
			phases = append(phases, sub.Phases...)
		}
		return collective.Schedule{Name: "pp-chain", Phases: phases}
	})
	for _, c := range perLinkAll {
		if c > rep.CrossOverlap {
			rep.CrossOverlap = c
		}
	}
	return rep
}
