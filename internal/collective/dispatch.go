package collective

import (
	"fmt"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/topology"
)

// Comm compiles collectives for a concrete wafer topology, selecting
// the algorithm per Section 7.2: ring-based endpoint algorithms on the
// mesh, the hierarchical 2D ring for non-in-network FRED variants
// (Fred-A/C), and in-switch execution for Fred-B/D.
//
// Compiled schedules are memoized under a canonical (kind, endpoints,
// group, bytes, fabric-state epoch) key — see compile.go — so the
// steady-state training loop replays immutable, route-pre-resolved
// schedules instead of rebuilding them every iteration.
type Comm struct {
	w topology.Wafer

	// Memoization state (compile.go): the per-Comm memo of prepared
	// schedules and the reused key scratch buffer.
	memoize bool
	memo    map[string]Schedule
	keyBuf  []byte
}

// NewComm returns a compiler for the given wafer, with schedule
// memoization on.
func NewComm(w topology.Wafer) *Comm {
	return &Comm{w: w, memoize: true, memo: make(map[string]Schedule)}
}

// Wafer returns the topology the compiler targets.
func (c *Comm) Wafer() topology.Wafer { return c.w }

// UnsupportedWaferError reports a collective requested on a wafer type
// the compiler has no algorithm for. It reaches callers as Schedule.Err
// → Op.Err → experiments.CellError, so a misconfigured cell fails
// cleanly instead of panicking the sweep.
type UnsupportedWaferError struct {
	Collective string // e.g. "allreduce"
	WaferType  string // the dynamic topology type, e.g. "*topology.Mesh"
}

func (e *UnsupportedWaferError) Error() string {
	return fmt.Sprintf("collective: %s: unsupported wafer type %s", e.Collective, e.WaferType)
}

// unsupported builds the errored schedule the dispatch methods return
// in place of the old panic.
func (c *Comm) unsupported(collective string) Schedule {
	return Schedule{
		Name: collective + "(unsupported)",
		Err:  &UnsupportedWaferError{Collective: collective, WaferType: fmt.Sprintf("%T", c.w)},
	}
}

// AllReduce compiles an all-reduce of bytes across the group.
func (c *Comm) AllReduce(group []int, bytes float64) Schedule {
	if len(group) <= 1 || bytes <= 0 {
		return Schedule{Name: "allreduce(noop)"}
	}
	if s, ok := c.lookup(kindAllReduce, 0, 0, group, bytes); ok {
		return s
	}
	return c.insert(c.buildAllReduce(group, bytes))
}

func (c *Comm) buildAllReduce(group []int, bytes float64) Schedule {
	switch w := c.w.(type) {
	case *topology.Mesh:
		return MeshAllReduce(w, group, bytes)
	case *topology.FredFabric:
		if w.InNetwork() {
			return FredInNetworkAllReduce(w, group, bytes)
		}
		return FredEndpointAllReduce(w, group, bytes)
	case *topology.FredTree:
		if w.InNetwork() {
			depth := 0.0
			for _, a := range group {
				if l := w.RouteLatency(group[0], a); l > depth {
					depth = l
				}
			}
			return Schedule{
				Name: fmt.Sprintf("fredtree-innet-allreduce(%d)", len(group)),
				Phases: []Phase{{Transfer{
					Links:           w.InNetworkAllReduceLinks(group),
					Bytes:           bytes,
					LatencyOverride: depth,
				}}},
			}
		}
		return RingAllReduce(w, group, bytes, true)
	}
	return c.unsupported("allreduce")
}

// treeReduce compiles an in-switch reduce toward root on any router:
// the union of each member's route to the root forms the reduction
// tree.
func treeReduce(r router, group []int, root int, bytes float64) Schedule {
	s := Schedule{Name: "tree-reduce"}
	var links []netsim.LinkID
	seen := map[netsim.LinkID]bool{}
	depth := 0.0
	for _, m := range group {
		if m == root {
			continue
		}
		if l := routeLatency(r, m, root); l > depth {
			depth = l
		}
		for _, l := range r.Route(m, root) {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}
	if len(links) == 0 || bytes <= 0 {
		return s
	}
	s.Phases = []Phase{{Transfer{Links: links, Bytes: bytes, LatencyOverride: depth}}}
	return s
}

// ReduceScatter compiles a reduce-scatter of bytes across the group.
func (c *Comm) ReduceScatter(group []int, bytes float64) Schedule {
	if len(group) <= 1 || bytes <= 0 {
		return Schedule{Name: "reducescatter(noop)"}
	}
	if s, ok := c.lookup(kindReduceScatter, 0, 0, group, bytes); ok {
		return s
	}
	return c.insert(c.buildReduceScatter(group, bytes))
}

func (c *Comm) buildReduceScatter(group []int, bytes float64) Schedule {
	switch w := c.w.(type) {
	case *topology.Mesh:
		return MeshReduceScatter(w, group, bytes)
	case *topology.FredFabric:
		if w.InNetwork() {
			return FredInNetworkReduceScatter(w, group, bytes)
		}
		return RingReduceScatter(w, group, bytes, true)
	case *topology.FredTree:
		if w.InNetwork() {
			s := Schedule{Name: fmt.Sprintf("fredtree-innet-reducescatter(%d)", len(group))}
			shard := bytes / float64(len(group))
			for _, root := range group {
				s.Phases = append(s.Phases, treeReduce(w, group, root, shard).Phases...)
			}
			return s
		}
		return RingReduceScatter(w, group, bytes, true)
	}
	return c.unsupported("reducescatter")
}

// AllGather compiles an all-gather of bytes across the group.
func (c *Comm) AllGather(group []int, bytes float64) Schedule {
	if len(group) <= 1 || bytes <= 0 {
		return Schedule{Name: "allgather(noop)"}
	}
	if s, ok := c.lookup(kindAllGather, 0, 0, group, bytes); ok {
		return s
	}
	return c.insert(c.buildAllGather(group, bytes))
}

func (c *Comm) buildAllGather(group []int, bytes float64) Schedule {
	switch w := c.w.(type) {
	case *topology.Mesh:
		return MeshAllGather(w, group, bytes)
	case *topology.FredFabric:
		if w.InNetwork() {
			return FredInNetworkAllGather(w, group, bytes)
		}
		return RingAllGather(w, group, bytes, true)
	case *topology.FredTree:
		if w.InNetwork() {
			s := Schedule{Name: fmt.Sprintf("fredtree-innet-allgather(%d)", len(group))}
			shard := bytes / float64(len(group))
			for _, src := range group {
				s.Phases = append(s.Phases, MulticastTree(w, src, group, shard).Phases...)
			}
			return s
		}
		return RingAllGather(w, group, bytes, true)
	}
	return c.unsupported("allgather")
}

// AllToAll compiles an all-to-all where each member distributes bytes
// across the group.
func (c *Comm) AllToAll(group []int, bytes float64) Schedule {
	if s, ok := c.lookup(kindAllToAll, 0, 0, group, bytes); ok {
		return s
	}
	return c.insert(AllToAll(c.w, group, bytes))
}

// P2P compiles a point-to-point transfer.
func (c *Comm) P2P(src, dst int, bytes float64) Schedule {
	if s, ok := c.lookup(kindP2P, src, dst, nil, bytes); ok {
		return s
	}
	return c.insert(Unicast(c.w, src, dst, bytes))
}

// Multicast compiles a one-to-many transfer: a forwarding tree on the
// mesh (NPUs replicate at each hop) and on in-network FRED variants
// (D-µswitches replicate in-switch); serial unicasts from the source
// on endpoint-only FRED variants, whose switches cannot replicate.
func (c *Comm) Multicast(src int, dsts []int, bytes float64) Schedule {
	if bytes <= 0 {
		return Schedule{Name: "multicast(noop)"}
	}
	if s, ok := c.lookup(kindMulticast, src, 0, dsts, bytes); ok {
		return s
	}
	return c.insert(c.buildMulticast(src, dsts, bytes))
}

func (c *Comm) buildMulticast(src int, dsts []int, bytes float64) Schedule {
	if t, ok := c.w.(*topology.FredTree); ok && !t.InNetwork() {
		s := Schedule{Name: fmt.Sprintf("multicast-unicasts(%d)", len(dsts))}
		var ph Phase
		for _, d := range dsts {
			if d == src {
				continue
			}
			ph = append(ph, Transfer{Links: t.Route(src, d), Bytes: bytes})
		}
		if len(ph) > 0 {
			s.Phases = []Phase{ph}
		}
		return s
	}
	if f, ok := c.w.(*topology.FredFabric); ok && !f.InNetwork() {
		s := Schedule{Name: fmt.Sprintf("multicast-unicasts(%d)", len(dsts))}
		var ph Phase
		for _, d := range dsts {
			if d == src {
				continue
			}
			ph = append(ph, Transfer{Links: f.Route(src, d), Bytes: bytes})
		}
		if len(ph) > 0 {
			s.Phases = []Phase{ph}
		}
		return s
	}
	return MulticastTree(c.w, src, dsts, bytes)
}
