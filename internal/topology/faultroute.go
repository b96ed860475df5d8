package topology

import (
	"fmt"

	"github.com/wafernet/fred/internal/netsim"
)

// Degraded-mode routing: every topology can be asked for a route that
// avoids failed links. The mesh falls back from X-Y dimension order to
// a breadth-first detour over the surviving links — real 2D meshes do
// exactly this with fault-tolerant turn models, at the cost of longer,
// more congested paths. The FRED fabric has no link-level detour to
// fall back to: a switch trunk is a bundle of middle-µswitch paths
// whose partial loss is modelled as bandwidth degradation (Clos spare
// paths re-planned by the conflict-free router, see internal/fred), so
// a fully failed trunk or NPU port makes the endpoint unreachable.

// UnreachableError reports that no alive route connects two NPUs.
type UnreachableError struct {
	Topo     string
	Src, Dst int
}

func (e *UnreachableError) Error() string {
	return fmt.Sprintf("topology: %s: no alive route from NPU %d to NPU %d", e.Topo, e.Src, e.Dst)
}

// routeAlive reports whether every link of a route is alive.
func routeAlive(net *netsim.Network, route []netsim.LinkID) bool {
	for _, id := range route {
		if net.Link(id).Failed() {
			return false
		}
	}
	return true
}

// RouteErr implements Wafer: X-Y dimension order when that path
// is alive, otherwise the shortest detour over surviving mesh links
// (breadth-first, deterministic neighbour order: east, west, south,
// north), otherwise an UnreachableError when the failures partition
// the mesh.
func (m *Mesh) RouteErr(src, dst int) ([]netsim.LinkID, error) {
	if src == dst {
		return nil, nil
	}
	if xy := m.Route(src, dst); routeAlive(m.net, xy) {
		return xy, nil
	}
	return m.detourRoute(src, dst)
}

// aliveNeighborLink returns the directed link between two adjacent
// NPUs, or false when the NPUs are not adjacent or the link has failed.
func (m *Mesh) aliveNeighborLink(from, to int) (netsim.LinkID, bool) {
	id, ok := m.links[[2]int{from, to}]
	if !ok || m.net.Link(id).Failed() {
		return 0, false
	}
	return id, true
}

// detourRoute runs a breadth-first search over the alive mesh links.
// The neighbour expansion order (east, west, south, north) and FIFO
// frontier make the chosen detour deterministic for a given fault
// state.
func (m *Mesh) detourRoute(src, dst int) ([]netsim.LinkID, error) {
	n := len(m.npus)
	prev := make([]int, n)
	for i := range prev {
		prev[i] = -1
	}
	prev[src] = src
	queue := make([]int, 0, n)
	queue = append(queue, src)
	for len(queue) > 0 && prev[dst] < 0 {
		cur := queue[0]
		queue = queue[1:]
		x, y := m.Coord(cur)
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= m.cfg.W || ny < 0 || ny >= m.cfg.H {
				continue
			}
			next := m.Index(nx, ny)
			if prev[next] >= 0 {
				continue
			}
			if _, ok := m.aliveNeighborLink(cur, next); !ok {
				continue
			}
			prev[next] = cur
			queue = append(queue, next)
		}
	}
	if prev[dst] < 0 {
		return nil, &UnreachableError{Topo: m.Name(), Src: src, Dst: dst}
	}
	// Reconstruct dst←src, then reverse into link order.
	var hops []int
	for at := dst; at != src; at = prev[at] {
		hops = append(hops, at)
	}
	route := make([]netsim.LinkID, 0, len(hops))
	at := src
	for i := len(hops) - 1; i >= 0; i-- {
		id, ok := m.aliveNeighborLink(at, hops[i])
		if !ok {
			panic("topology: BFS produced a dead hop") // unreachable by construction
		}
		route = append(route, id)
		at = hops[i]
	}
	return route, nil
}

// RouteErr implements Wafer. The up-down route through the switch
// hierarchy is unique at link granularity (path diversity lives
// inside the switches, see package fred), so a failed link on it means
// the pair is unreachable.
func (f *FredFabric) RouteErr(src, dst int) ([]netsim.LinkID, error) {
	route := f.Route(src, dst)
	if !routeAlive(f.net, route) {
		return nil, &UnreachableError{Topo: f.Name(), Src: src, Dst: dst}
	}
	return route, nil
}

// AliveNPUs implements Wafer: a mesh NPU participates while any of its
// ports work, so at least one in- and one out-link must survive.
func (m *Mesh) AliveNPUs() []int {
	in, out := make([]bool, len(m.npus)), make([]bool, len(m.npus))
	for pair, id := range m.links {
		if !m.net.Link(id).Failed() {
			out[pair[0]], in[pair[1]] = true, true
		}
	}
	var alive []int
	for i := range m.npus {
		if in[i] && out[i] {
			alive = append(alive, i)
		}
	}
	return alive
}

// AliveNPUs implements Wafer: an NPU participates while both
// directions of its single switch port are alive.
func (f *FredFabric) AliveNPUs() []int {
	var alive []int
	for i := range f.npuUp {
		if !f.net.Link(f.npuUp[i]).Failed() && !f.net.Link(f.npuDown[i]).Failed() {
			alive = append(alive, i)
		}
	}
	return alive
}
