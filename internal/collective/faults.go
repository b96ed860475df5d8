package collective

import (
	"slices"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/topology"
)

// Degraded-mode collective compilation: shrink groups to the NPUs the
// wafer can still reach, and (on the mesh) route ring edges around
// failed links via the topology's detour router. A schedule compiled
// here either uses only alive links or contains a routeless transfer,
// which fails the Op with an error instead of panicking.

// AliveGroup filters a collective group down to its members that still
// have fabric connectivity (see topology.Wafer.AliveNPUs), preserving
// order. Dropped NPUs simply stop participating: the shrunken ring or
// tree reduces over the survivors only.
func AliveGroup(w topology.Wafer, group []int) []int {
	alive := w.AliveNPUs()
	out := make([]int, 0, len(group))
	for _, m := range group {
		if _, ok := slices.BinarySearch(alive, m); ok {
			out = append(out, m)
		}
	}
	return out
}

// detourRouter adapts a wafer's fault-aware RouteErr to the schedule
// compilers' router interface: an unreachable pair yields a nil route,
// which surfaces as an OpFailed transfer rather than a dead flow.
type detourRouter struct{ topology.Wafer }

func (d detourRouter) Route(src, dst int) []netsim.LinkID {
	route, err := d.RouteErr(src, dst)
	if err != nil {
		return nil
	}
	return route
}

// AllReduceDegraded compiles an all-reduce over the alive members of
// group, with the wafer's degraded algorithm (see selectAlgorithms).
// The whole compilation — alive-group filtering included — is a pure
// function of the fabric-state epoch, so it is memoized under its own
// key on the original group; a Fail/Restore bumps the epoch and the
// next call re-filters and re-plans.
func (c *Comm) AllReduceDegraded(group []int, bytes float64) Schedule {
	if bytes <= 0 {
		return Schedule{Name: "allreduce(noop)"}
	}
	if s, ok := c.lookup(kindAllReduceDegraded, 0, 0, group, bytes); ok {
		return s
	}
	alive := AliveGroup(c.w, group)
	if len(alive) <= 1 {
		return c.insert(Schedule{Name: "allreduce(noop)"})
	}
	return c.insert(c.algos.degraded(alive, bytes))
}
