package collective

import (
	"fmt"
	"sort"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/topology"
)

// router turns an NPU pair into a link route and that route's
// cut-through latency, so schedules can model pipeline fill time for
// small messages. Every topology.Wafer satisfies it.
type router interface {
	Route(src, dst int) []netsim.LinkID
	RouteLatency(src, dst int) float64
}

// RingAllReduce compiles an endpoint ring all-reduce over the logical
// ring given by order. With bidirectional=true the data is split into
// two concurrent chunks travelling in reverse directions (Section 7.2).
// Total per-member traffic is the BW-optimal 2(N−1)/N · bytes.
//
// The collective is chunked and pipelined, so all ring edges stream
// continuously; the schedule models this steady state as a single
// phase in which each directed ring edge carries its aggregate bytes
// (2(N−1) chunks of bytes/(dirs·N)).
func RingAllReduce(r router, order []int, bytes float64, bidirectional bool) Schedule {
	s := Schedule{Name: fmt.Sprintf("ring-allreduce(%d)", len(order))}
	s.Phases = appendRingPhase(s.Phases, r, order, bytes, bidirectional, 2)
	return s
}

// RingReduceScatter compiles the reduce-scatter half of the ring
// algorithm: per-member traffic (N−1)/N · bytes.
func RingReduceScatter(r router, order []int, bytes float64, bidirectional bool) Schedule {
	s := Schedule{Name: fmt.Sprintf("ring-reducescatter(%d)", len(order))}
	s.Phases = appendRingPhase(s.Phases, r, order, bytes, bidirectional, 1)
	return s
}

// RingAllGather compiles the all-gather half of the ring algorithm.
func RingAllGather(r router, order []int, bytes float64, bidirectional bool) Schedule {
	s := Schedule{Name: fmt.Sprintf("ring-allgather(%d)", len(order))}
	s.Phases = appendRingPhase(s.Phases, r, order, bytes, bidirectional, 1)
	return s
}

// appendRingPhase emits one pipelined phase carrying halves × (N−1)
// chunks per directed ring edge (halves = 2 for a full all-reduce:
// reduce-scatter then all-gather).
func appendRingPhase(phases []Phase, r router, order []int, bytes float64, bidirectional bool, halves int) []Phase {
	n := len(order)
	if n <= 1 || bytes <= 0 {
		return phases
	}
	dirs := 1
	if bidirectional {
		dirs = 2
	}
	perEdge := float64(halves*(n-1)) * bytes / float64(dirs*n)
	// Pipeline fill: the ring's halves×(n−1) serial steps each pay the
	// longest hop's latency before the pipeline saturates.
	steps := float64(halves * (n - 1))
	maxHop := 0.0
	for i := 0; i < n; i++ {
		if l := r.RouteLatency(order[i], order[(i+1)%n]); l > maxHop {
			maxHop = l
		}
	}
	fill := steps * maxHop
	var ph Phase
	for i := 0; i < n; i++ {
		// Direction A: member i streams to its successor.
		ph = append(ph, Transfer{Links: r.Route(order[i], order[(i+1)%n]), Bytes: perEdge, LatencyOverride: fill})
		if bidirectional {
			// Direction B: member i streams to its predecessor.
			ph = append(ph, Transfer{Links: r.Route(order[i], order[(i-1+n)%n]), Bytes: perEdge, LatencyOverride: fill})
		}
	}
	return append(phases, ph)
}

// HamiltonianRing returns a Hamiltonian cycle of the mesh as an NPU
// order, so a wafer-wide logical ring uses only physical-neighbour
// hops (every NPU drives exactly two link directions per ring
// direction — the corner-NPU bound of Section 8.1). The cycle exists
// whenever a mesh dimension is even; the 5×4 baseline qualifies.
func HamiltonianRing(m *topology.Mesh) []int {
	w, h := m.Dims()
	if h%2 != 0 && w%2 != 0 {
		panic(fmt.Sprintf("collective: no Hamiltonian cycle on %dx%d mesh", w, h))
	}
	if h%2 != 0 {
		// Transposed construction (width even): snake over rows 1..h-1
		// column by column, then return along row 0.
		order := make([]int, 0, w*h)
		for x := 0; x < w; x++ {
			if x%2 == 0 {
				for y := 1; y < h; y++ {
					order = append(order, m.Index(x, y))
				}
			} else {
				for y := h - 1; y >= 1; y-- {
					order = append(order, m.Index(x, y))
				}
			}
		}
		for x := w - 1; x >= 0; x-- {
			order = append(order, m.Index(x, 0))
		}
		return order
	}
	// Boustrophedon over columns 1..w-1, then return along column 0.
	order := make([]int, 0, w*h)
	for y := 0; y < h; y++ {
		if y%2 == 0 {
			for x := 1; x < w; x++ {
				order = append(order, m.Index(x, y))
			}
		} else {
			for x := w - 1; x >= 1; x-- {
				order = append(order, m.Index(x, y))
			}
		}
	}
	for y := h - 1; y >= 0; y-- {
		order = append(order, m.Index(0, y))
	}
	return order
}

// SnakeOrder sorts a group of mesh NPUs in boustrophedon order (row by
// row, alternating direction), the logical-ring construction for
// collectives between arbitrary NPUs on the mesh (Section 7.2).
// Non-adjacent consecutive members route X-Y across multiple hops,
// which is exactly the congestion source of Figure 6.
func SnakeOrder(m *topology.Mesh, group []int) []int {
	out := append([]int(nil), group...)
	sort.Slice(out, func(a, b int) bool {
		ax, ay := m.Coord(out[a])
		bx, by := m.Coord(out[b])
		if ay != by {
			return ay < by
		}
		if ay%2 == 1 {
			return ax > bx
		}
		return ax < bx
	})
	return out
}

// MeshAllReduce compiles the baseline all-reduce: a wafer-wide group
// rides the Hamiltonian ring ("hierarchical 2D algorithm with two
// concurrent chunks in reverse direction" — same per-NPU 2-link
// utilisation and 2(N−1)/N·D traffic); arbitrary groups ride a
// bidirectional logical ring in snake order.
func MeshAllReduce(m *topology.Mesh, group []int, bytes float64) Schedule {
	return RingAllReduce(m, meshOrder(m, group), bytes, true)
}

// meshOrder picks the ring embedding for a mesh group.
func meshOrder(m *topology.Mesh, group []int) []int {
	if len(group) == m.NPUCount() {
		return HamiltonianRing(m)
	}
	return SnakeOrder(m, group)
}

// MeshReduceScatter compiles a ring reduce-scatter on the mesh.
func MeshReduceScatter(m *topology.Mesh, group []int, bytes float64) Schedule {
	return RingReduceScatter(m, meshOrder(m, group), bytes, true)
}

// MeshAllGather compiles a ring all-gather on the mesh.
func MeshAllGather(m *topology.Mesh, group []int, bytes float64) Schedule {
	return RingAllGather(m, meshOrder(m, group), bytes, true)
}

// Unicast compiles a single point-to-point transfer.
func Unicast(r router, src, dst int, bytes float64) Schedule {
	s := Schedule{Name: "unicast"}
	if src == dst || bytes <= 0 {
		return s
	}
	s.Phases = []Phase{{Transfer{Links: r.Route(src, dst), Bytes: bytes}}}
	return s
}

// MulticastTree compiles a one-to-many transfer over the union of the
// topology's unicast routes (see routeTree). Used for pipeline-parallel
// activation forwarding where one MP-group member feeds every NPU of
// the next stage (footnote 8).
func MulticastTree(r router, src int, dsts []int, bytes float64) Schedule {
	return routeTree(fmt.Sprintf("multicast(%d)", len(dsts)), r, src, dsts, bytes, false)
}

// routeTree compiles one pipelined transfer over the union of the
// routes between hub and every other member: from the hub (a
// multicast) or, with toHub, toward it (an in-switch reduce). The
// union forms a tree on the X-Y mesh (shared row prefix, then
// columns) and on the FRED fabrics (up, across, down); the transfer
// pays the deepest route's latency once.
func routeTree(name string, r router, hub int, members []int, bytes float64, toHub bool) Schedule {
	s := Schedule{Name: name}
	if bytes <= 0 {
		return s
	}
	var links []netsim.LinkID
	seen := make(map[netsim.LinkID]bool)
	depth := 0.0
	for _, m := range members {
		if m == hub {
			continue
		}
		src, dst := hub, m
		if toHub {
			src, dst = m, hub
		}
		if l := r.RouteLatency(src, dst); l > depth {
			depth = l
		}
		for _, l := range r.Route(src, dst) {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}
	if len(links) == 0 {
		return s
	}
	s.Phases = []Phase{{Transfer{Links: links, Bytes: bytes, LatencyOverride: depth}}}
	return s
}

// AllToAll compiles an all-to-all of bytes per member pair... each
// member holds bytes total, sending bytes/(N−1) to every other member,
// decomposed into N−1 serial steps of concurrent shifted unicasts
// (Table 2).
func AllToAll(r router, group []int, bytes float64) Schedule {
	n := len(group)
	s := Schedule{Name: fmt.Sprintf("alltoall(%d)", n)}
	if n <= 1 || bytes <= 0 {
		return s
	}
	chunk := bytes / float64(n-1)
	for j := 1; j < n; j++ {
		var ph Phase
		for k := 0; k < n; k++ {
			ph = append(ph, Transfer{Links: r.Route(group[k], group[(k+j)%n]), Bytes: chunk})
		}
		s.Phases = append(s.Phases, ph)
	}
	return s
}
