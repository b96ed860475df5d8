package collective

import (
	"fmt"

	"github.com/wafernet/fred/internal/topology"
)

// Comm compiles collectives for a concrete wafer topology, with the
// algorithms NewComm selects for it (see selectAlgorithms).
//
// Compiled schedules are memoized under a canonical (kind, endpoints,
// group, bytes, fabric-state epoch) key — see compile.go — so the
// steady-state training loop replays immutable, route-pre-resolved
// schedules instead of rebuilding them every iteration.
type Comm struct {
	w     topology.Wafer
	algos algorithms

	// Memoization state (compile.go): the per-Comm memo of prepared
	// schedules and the reused key scratch buffer.
	memoize bool
	memo    map[string]Schedule
	keyBuf  []byte
}

// NewComm returns a compiler for the given wafer, with schedule
// memoization on.
func NewComm(w topology.Wafer) *Comm {
	return &Comm{w: w, algos: selectAlgorithms(w), memoize: true, memo: make(map[string]Schedule)}
}

// Wafer returns the topology the compiler targets.
func (c *Comm) Wafer() topology.Wafer { return c.w }

// algorithms are the schedule compilers a Comm uses on its wafer.
type algorithms struct {
	allReduce, reduceScatter, allGather func(group []int, bytes float64) Schedule
	multicast                           func(src int, dsts []int, bytes float64) Schedule
	// degraded compiles an all-reduce over the alive members of a
	// group on a faulted fabric.
	degraded func(alive []int, bytes float64) Schedule
}

// selectAlgorithms picks the wafer's algorithms per Section 7.2:
// ring-based endpoint algorithms on the mesh, the hierarchical 2D ring
// on endpoint-only FRED variants (Fred-A/C), and in-switch execution
// on in-network ones (Fred-B/D). It is the one place outside package
// topology that decides a fabric's kind: topology cannot import
// collective, so the choice cannot be a Wafer method.
//
// Multicast is a forwarding tree wherever the fabric can replicate —
// NPUs at each mesh hop, D-µswitches in-network — and concurrent
// unicasts from the source on endpoint-only FRED, whose switches
// cannot.
//
// Degraded all-reduce keeps the usual all-reduce over the shrunken
// group, except on the mesh: there the ring edges detour around
// failed links, since the Hamiltonian embedding assumes a healthy
// wafer. FRED's partial switch loss is modelled as trunk degradation
// rather than route loss.
func selectAlgorithms(w topology.Wafer) algorithms {
	tree := func(src int, dsts []int, bytes float64) Schedule { return MulticastTree(w, src, dsts, bytes) }
	var a algorithms
	switch w := w.(type) {
	case *topology.Mesh:
		a = algorithms{
			allReduce:     func(g []int, b float64) Schedule { return MeshAllReduce(w, g, b) },
			reduceScatter: func(g []int, b float64) Schedule { return MeshReduceScatter(w, g, b) },
			allGather:     func(g []int, b float64) Schedule { return MeshAllGather(w, g, b) },
			multicast:     tree,
			degraded: func(alive []int, b float64) Schedule {
				return RingAllReduce(detourRouter{w}, SnakeOrder(w, alive), b, true)
			},
		}
	case *topology.FredFabric:
		if w.InNetwork() {
			a = algorithms{
				allReduce:     func(g []int, b float64) Schedule { return FredInNetworkAllReduce(w, g, b) },
				reduceScatter: func(g []int, b float64) Schedule { return FredInNetworkReduceScatter(w, g, b) },
				allGather:     func(g []int, b float64) Schedule { return FredInNetworkAllGather(w, g, b) },
				multicast:     tree,
			}
		} else {
			a = endpointOnly(w)
			a.allReduce = func(g []int, b float64) Schedule { return FredEndpointAllReduce(w, g, b) }
		}
	default:
		a = algorithms{
			allReduce:     func([]int, float64) Schedule { return unsupported(w, "allreduce") },
			reduceScatter: func([]int, float64) Schedule { return unsupported(w, "reducescatter") },
			allGather:     func([]int, float64) Schedule { return unsupported(w, "allgather") },
			multicast:     tree,
		}
	}
	if a.degraded == nil {
		a.degraded = a.allReduce
	}
	return a
}

// endpointOnly returns the endpoint-only FRED algorithms other than
// all-reduce: flat bidirectional rings and unicast multicast.
func endpointOnly(w topology.Wafer) algorithms {
	return algorithms{
		reduceScatter: func(g []int, b float64) Schedule { return RingReduceScatter(w, g, b, true) },
		allGather:     func(g []int, b float64) Schedule { return RingAllGather(w, g, b, true) },
		multicast:     func(src int, dsts []int, b float64) Schedule { return unicasts(w, src, dsts, b) },
	}
}

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

// unsupported builds the errored schedule an unsupported wafer's
// algorithms return in place of a panic.
func unsupported(w topology.Wafer, collective string) Schedule {
	return Schedule{
		Name: collective + "(unsupported)",
		Err:  &UnsupportedWaferError{Collective: collective, WaferType: fmt.Sprintf("%T", w)},
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
	return c.insert(c.algos.allReduce(group, bytes))
}

// ReduceScatter compiles a reduce-scatter of bytes across the group.
func (c *Comm) ReduceScatter(group []int, bytes float64) Schedule {
	if len(group) <= 1 || bytes <= 0 {
		return Schedule{Name: "reducescatter(noop)"}
	}
	if s, ok := c.lookup(kindReduceScatter, 0, 0, group, bytes); ok {
		return s
	}
	return c.insert(c.algos.reduceScatter(group, bytes))
}

// AllGather compiles an all-gather of bytes across the group.
func (c *Comm) AllGather(group []int, bytes float64) Schedule {
	if len(group) <= 1 || bytes <= 0 {
		return Schedule{Name: "allgather(noop)"}
	}
	if s, ok := c.lookup(kindAllGather, 0, 0, group, bytes); ok {
		return s
	}
	return c.insert(c.algos.allGather(group, bytes))
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

// Multicast compiles a one-to-many transfer from src to dsts.
func (c *Comm) Multicast(src int, dsts []int, bytes float64) Schedule {
	if bytes <= 0 {
		return Schedule{Name: "multicast(noop)"}
	}
	if s, ok := c.lookup(kindMulticast, src, 0, dsts, bytes); ok {
		return s
	}
	return c.insert(c.algos.multicast(src, dsts, bytes))
}

// unicasts compiles a multicast as concurrent unicasts from the
// source, for fabrics whose switches cannot replicate.
func unicasts(r router, src int, dsts []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("multicast-unicasts(%d)", len(dsts))}
	var ph Phase
	for _, d := range dsts {
		if d == src {
			continue
		}
		ph = append(ph, Transfer{Links: r.Route(src, d), Bytes: bytes})
	}
	if len(ph) > 0 {
		s.Phases = []Phase{ph}
	}
	return s
}
