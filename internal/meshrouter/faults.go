package meshrouter

import "fmt"

// Degraded-mode routing. Channels (directed router-to-router links)
// can be failed before Run; the mesh then abandons pure X-Y and routes
// every flit by a BFS next-hop table computed over the alive channels
// only. Detours keep traffic flowing around failures at the cost of
// X-Y's deadlock-freedom guarantee — Run reports a wedged network as
// an error rather than panicking, since on a degraded mesh that is a
// property of the fault plan, not a model bug.

// unroutable marks a node×dst table entry with no alive path.
const unroutable = Direction(-1)

// UnroutableError reports an injected message whose destination has no
// alive path from its source.
type UnroutableError struct {
	Msg      int // message index, in injection order
	Src, Dst int
}

func (e *UnroutableError) Error() string {
	return fmt.Sprintf("meshrouter: message %d: no alive path %d -> %d", e.Msg, e.Src, e.Dst)
}

// FailChannel takes the directed channel node→(node+d) out of service.
// It panics if d is Local or the channel leaves the mesh — fault plans
// name real channels; naming a nonexistent one is a programmer bug.
func (m *Mesh) FailChannel(node int, d Direction) {
	if d == Local {
		panic("meshrouter: cannot fail a local port")
	}
	if _, ok := m.neighbor(node, d); !ok {
		panic(fmt.Sprintf("meshrouter: FailChannel(%d, %v) leaves the mesh", node, d))
	}
	if m.failed == nil {
		m.failed = make(map[[2]int]bool)
	}
	m.failed[[2]int{node, int(d)}] = true
	m.tableDirty = true
}

// FailLink fails both directed channels between the adjacent nodes a
// and b, modelling the loss of a physical mesh link. It panics if the
// nodes are not neighbors.
func (m *Mesh) FailLink(a, b int) {
	for _, d := range []Direction{East, West, South, North} {
		if n, ok := m.neighbor(a, d); ok && n == b {
			m.FailChannel(a, d)
			m.FailChannel(b, opposite(d))
			return
		}
	}
	panic(fmt.Sprintf("meshrouter: FailLink(%d, %d): nodes are not adjacent", a, b))
}

// FailRouter fails every channel into and out of a node, modelling a
// dead router (the attached NPU can still deliver to itself).
func (m *Mesh) FailRouter(node int) {
	for _, d := range []Direction{East, West, South, North} {
		if n, ok := m.neighbor(node, d); ok {
			m.FailChannel(node, d)
			m.FailChannel(n, opposite(d))
		}
	}
}

// ChannelFailed reports whether the directed channel node→d is out of
// service.
func (m *Mesh) ChannelFailed(node int, d Direction) bool {
	return m.failed[[2]int{node, int(d)}]
}

// rebuildTable installs the detour next-hop table for the current
// fault state: for each destination, a BFS from dst over alive
// channels (deterministic E/W/S/N expansion) labels every node with
// its first hop toward dst, or unroutable when no alive path exists.
func (m *Mesh) rebuildTable() {
	n := len(m.routers)
	table := make([]Direction, n*n)
	dirs := [...]Direction{East, West, South, North}
	queue := make([]int, 0, n)
	for dst := 0; dst < n; dst++ {
		for u := 0; u < n; u++ {
			table[u*n+dst] = unroutable
		}
		table[dst*n+dst] = Local
		queue = append(queue[:0], dst)
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, d := range dirs {
				u, ok := m.neighbor(v, d)
				if !ok || u == dst || table[u*n+dst] != unroutable {
					continue
				}
				// The channel from u toward v runs opposite to d.
				ud := opposite(d)
				if m.failed[[2]int{u, int(ud)}] {
					continue
				}
				table[u*n+dst] = ud
				queue = append(queue, u)
			}
		}
	}
	m.table = table
	m.tableDirty = false
}
