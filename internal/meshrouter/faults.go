package meshrouter

import "fmt"

// Degraded-mode routing. Channels (directed router-to-router links)
// can be failed before Run (FailChannel; the tests' FailLink and
// FailRouter fail a physical link or a whole router); the mesh then abandons pure X-Y and routes
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
