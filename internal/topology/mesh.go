package topology

import (
	"fmt"

	"github.com/wafernet/fred/internal/netsim"
)

// MeshConfig parameterizes a baseline 2D-mesh wafer (Section 6.2,
// Table 5 of the paper).
type MeshConfig struct {
	W, H        int     // mesh dimensions (paper: 5×4)
	LinkBW      float64 // per-direction NPU-NPU link bandwidth (750 GB/s)
	LinkLatency float64 // per-hop latency (20 ns)
	IOCBW       float64 // per-direction I/O controller bandwidth (128 GB/s)
}

// DefaultMeshConfig returns the paper's baseline: a 5×4 mesh of 20
// NPUs, 750 GB/s links (3 TB/s NPU bandwidth over 4 ports), 20 ns
// wafer-link latency, and 18 CXL-3 I/O controllers of 128 GB/s.
func DefaultMeshConfig() MeshConfig {
	return MeshConfig{W: 5, H: 4, LinkBW: 750e9, LinkLatency: 20e-9, IOCBW: 128e9}
}

// iocKind distinguishes how a mesh I/O channel spreads its broadcast.
type iocKind int

const (
	// rowIOC channels (left/right edges) stream along their row first,
	// then down/up every column.
	rowIOC iocKind = iota
	// colIOC channels (top/bottom edges) stream along their column
	// first, then across every row.
	colIOC
)

type meshIOC struct {
	kind     iocKind
	x, y     int  // attach NPU coordinates
	east     bool // rowIOC: spread eastward first (attached on left edge)
	south    bool // colIOC: spread southward first (attached on top edge)
	node     netsim.NodeID
	toNPU    netsim.LinkID
	fromNPU  netsim.LinkID
	loadTmp  []netsim.LinkID // cached broadcast tree
	storeTmp []netsim.LinkID // cached reduce tree
}

// Mesh is the baseline 2D-mesh wafer fabric. NPUs are indexed
// y*W + x with (0,0) the top-left corner. I/O controllers are attached
// to every border NPU, with corner NPUs carrying two (one row-type,
// one column-type), totalling 2W+2H controllers — 18 on the 5×4
// instance, matching the paper.
type Mesh struct {
	cfg   MeshConfig
	net   *netsim.Network
	npus  []netsim.NodeID
	links map[[2]int]netsim.LinkID // directed NPU-index pair -> link
	iocs  []meshIOC
}

// NewMesh builds a mesh wafer in the given network.
func NewMesh(net *netsim.Network, cfg MeshConfig) *Mesh {
	if cfg.W < 2 || cfg.H < 2 {
		panic(fmt.Sprintf("topology: mesh %dx%d too small", cfg.W, cfg.H))
	}
	m := &Mesh{cfg: cfg, net: net, links: make(map[[2]int]netsim.LinkID)}
	var nm namer
	for y := 0; y < cfg.H; y++ {
		for x := 0; x < cfg.W; x++ {
			m.npus = append(m.npus, net.AddNode(nm.s("npu(").i(x).s(",").i(y).s(")").done()))
		}
	}
	addPair := func(a, b int) {
		m.links[[2]int{a, b}] = net.AddLink(m.npus[a], m.npus[b], cfg.LinkBW, cfg.LinkLatency,
			nm.s("mesh ").i(a).s("->").i(b).done())
		m.links[[2]int{b, a}] = net.AddLink(m.npus[b], m.npus[a], cfg.LinkBW, cfg.LinkLatency,
			nm.s("mesh ").i(b).s("->").i(a).done())
	}
	for y := 0; y < cfg.H; y++ {
		for x := 0; x < cfg.W; x++ {
			if x+1 < cfg.W {
				addPair(m.Index(x, y), m.Index(x+1, y))
			}
			if y+1 < cfg.H {
				addPair(m.Index(x, y), m.Index(x, y+1))
			}
		}
	}
	// I/O controllers: left and right edges get row-type channels, top
	// and bottom edges column-type channels; corners host one of each.
	add := func(kind iocKind, x, y int, east, south bool) {
		node := net.AddNode(nm.s("ioc").i(len(m.iocs)).done())
		npu := m.npus[m.Index(x, y)]
		ioc := meshIOC{kind: kind, x: x, y: y, east: east, south: south, node: node}
		ioc.toNPU = net.AddLink(node, npu, cfg.IOCBW, cfg.LinkLatency, nm.s("ioc").i(len(m.iocs)).s("->npu").done())
		ioc.fromNPU = net.AddLink(npu, node, cfg.IOCBW, cfg.LinkLatency, nm.s("npu->ioc").i(len(m.iocs)).done())
		m.iocs = append(m.iocs, ioc)
	}
	for y := 0; y < cfg.H; y++ {
		add(rowIOC, 0, y, true, false)        // left edge
		add(rowIOC, cfg.W-1, y, false, false) // right edge
	}
	for x := 0; x < cfg.W; x++ {
		add(colIOC, x, 0, false, true)        // top edge
		add(colIOC, x, cfg.H-1, false, false) // bottom edge
	}
	return m
}

// Index converts mesh coordinates to an NPU index.
func (m *Mesh) Index(x, y int) int { return y*m.cfg.W + x }

// Coord converts an NPU index to mesh coordinates.
func (m *Mesh) Coord(i int) (x, y int) { return i % m.cfg.W, i / m.cfg.W }

// Dims returns the mesh width and height.
func (m *Mesh) Dims() (w, h int) { return m.cfg.W, m.cfg.H }

// Name implements Wafer.
func (m *Mesh) Name() string { return fmt.Sprintf("mesh-%dx%d", m.cfg.W, m.cfg.H) }

// Network implements Wafer.
func (m *Mesh) Network() *netsim.Network { return m.net }

// NPUCount implements Wafer.
func (m *Mesh) NPUCount() int { return len(m.npus) }

// IOCCount implements Wafer.
func (m *Mesh) IOCCount() int { return len(m.iocs) }

// NPUPortBW implements Wafer: the aggregate one-direction bandwidth of
// an interior NPU (4 ports).
func (m *Mesh) NPUPortBW() float64 { return 4 * m.cfg.LinkBW }

// IOCBW implements Wafer.
func (m *Mesh) IOCBW() float64 { return m.cfg.IOCBW }

// LinkBW returns the per-direction mesh link bandwidth.
func (m *Mesh) LinkBW() float64 { return m.cfg.LinkBW }

// NeighborLink returns the directed link between two adjacent NPUs.
func (m *Mesh) NeighborLink(from, to int) netsim.LinkID {
	id, ok := m.links[[2]int{from, to}]
	if !ok {
		panic(fmt.Sprintf("topology: NPUs %d and %d are not mesh neighbours", from, to))
	}
	return id
}

// Degree returns the number of mesh ports of an NPU (2 at corners, 3
// on edges, 4 inside) — the corner-NPU limit that caps the baseline's
// effective collective bandwidth (Section 8.1).
func (m *Mesh) Degree(i int) int {
	x, y := m.Coord(i)
	d := 4
	if x == 0 || x == m.cfg.W-1 {
		d--
	}
	if y == 0 || y == m.cfg.H-1 {
		d--
	}
	return d
}

// Route implements Wafer using X-Y dimension-order routing: traverse
// the X dimension first, then Y, as in real mesh systems (Section 7.2).
func (m *Mesh) Route(src, dst int) []netsim.LinkID {
	if src == dst {
		return nil
	}
	var out []netsim.LinkID
	x, y := m.Coord(src)
	dx, dy := m.Coord(dst)
	for x != dx {
		nx := x + 1
		if dx < x {
			nx = x - 1
		}
		out = append(out, m.NeighborLink(m.Index(x, y), m.Index(nx, y)))
		x = nx
	}
	for y != dy {
		ny := y + 1
		if dy < y {
			ny = y - 1
		}
		out = append(out, m.NeighborLink(m.Index(x, y), m.Index(x, ny)))
		y = ny
	}
	return out
}

// RouteLatency returns the X-Y route's cut-through latency.
func (m *Mesh) RouteLatency(src, dst int) float64 {
	return float64(m.Distance(src, dst)) * m.cfg.LinkLatency
}

// Distance returns the Manhattan hop count between two NPUs.
func (m *Mesh) Distance(a, b int) int {
	ax, ay := m.Coord(a)
	bx, by := m.Coord(b)
	dx, dy := ax-bx, ay-by
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// rowSpan appends the eastward or westward links of row y covering all
// columns, spreading away from column x0.
func (m *Mesh) rowSpread(out []netsim.LinkID, x0, y int, reverse bool) []netsim.LinkID {
	for x := x0; x+1 < m.cfg.W; x++ {
		a, b := m.Index(x, y), m.Index(x+1, y)
		if reverse {
			a, b = b, a
		}
		out = append(out, m.NeighborLink(a, b))
	}
	for x := x0; x-1 >= 0; x-- {
		a, b := m.Index(x, y), m.Index(x-1, y)
		if reverse {
			a, b = b, a
		}
		out = append(out, m.NeighborLink(a, b))
	}
	return out
}

// colSpread appends the vertical links of column x covering all rows,
// spreading away from row y0.
func (m *Mesh) colSpread(out []netsim.LinkID, x, y0 int, reverse bool) []netsim.LinkID {
	for y := y0; y+1 < m.cfg.H; y++ {
		a, b := m.Index(x, y), m.Index(x, y+1)
		if reverse {
			a, b = b, a
		}
		out = append(out, m.NeighborLink(a, b))
	}
	for y := y0; y-1 >= 0; y-- {
		a, b := m.Index(x, y), m.Index(x, y-1)
		if reverse {
			a, b = b, a
		}
		out = append(out, m.NeighborLink(a, b))
	}
	return out
}

// broadcastTree builds the MPI-style one-to-many tree of Figure 4(A):
// a row-type channel streams along its row, and every column forwards
// vertically; a column-type channel streams along its column, and
// every row forwards horizontally. reverse=true yields the reduction
// (store) tree with all edge directions flipped.
func (m *Mesh) broadcastTree(ioc int, reverse bool) []netsim.LinkID {
	c := m.iocs[ioc]
	var out []netsim.LinkID
	if reverse {
		out = append(out, c.fromNPU)
	} else {
		out = append(out, c.toNPU)
	}
	switch c.kind {
	case rowIOC:
		out = m.rowSpread(out, c.x, c.y, reverse)
		for x := 0; x < m.cfg.W; x++ {
			out = m.colSpread(out, x, c.y, reverse)
		}
	case colIOC:
		out = m.colSpread(out, c.x, c.y, reverse)
		for y := 0; y < m.cfg.H; y++ {
			out = m.rowSpread(out, c.x, y, reverse)
		}
	}
	return out
}

// IOCLoadTree implements Wafer.
func (m *Mesh) IOCLoadTree(ioc int) []netsim.LinkID {
	c := &m.iocs[ioc]
	if c.loadTmp == nil {
		c.loadTmp = m.broadcastTree(ioc, false)
	}
	return c.loadTmp
}

// IOCStoreTree implements Wafer.
func (m *Mesh) IOCStoreTree(ioc int) []netsim.LinkID {
	c := &m.iocs[ioc]
	if c.storeTmp == nil {
		c.storeTmp = m.broadcastTree(ioc, true)
	}
	return c.storeTmp
}

// IOCToNPU implements Wafer.
func (m *Mesh) IOCToNPU(ioc, npu int) []netsim.LinkID {
	c := m.iocs[ioc]
	out := []netsim.LinkID{c.toNPU}
	return append(out, m.Route(m.Index(c.x, c.y), npu)...)
}

// NPUToIOC implements Wafer.
func (m *Mesh) NPUToIOC(npu, ioc int) []netsim.LinkID {
	c := m.iocs[ioc]
	out := m.Route(npu, m.Index(c.x, c.y))
	return append(out, c.fromNPU)
}

// NearestIOC implements Wafer: the controller whose attach NPU is
// closest in Manhattan distance, ties broken by controller index so
// NPUs spread across the 18 channels.
func (m *Mesh) NearestIOC(npu int) int {
	best, bestDist := 0, 1<<30
	for i, c := range m.iocs {
		d := m.Distance(npu, m.Index(c.x, c.y))*len(m.iocs) + i
		if d < bestDist {
			bestDist = d
			best = i
		}
	}
	return best
}

// BisectionBW implements Wafer: the narrowest balanced cut. For the
// 5×4 baseline this is the horizontal cut crossing five vertical
// links: 3.75 TB/s, as in Table 5.
func (m *Mesh) BisectionBW() float64 {
	best := -1.0
	if m.cfg.H%2 == 0 {
		best = float64(m.cfg.W) * m.cfg.LinkBW
	}
	if m.cfg.W%2 == 0 {
		v := float64(m.cfg.H) * m.cfg.LinkBW
		if best < 0 || v < best {
			best = v
		}
	}
	if best < 0 {
		// Both dimensions odd: nearest-to-balanced cut along the
		// narrower dimension.
		if m.cfg.W < m.cfg.H {
			best = float64(m.cfg.W) * m.cfg.LinkBW
		} else {
			best = float64(m.cfg.H) * m.cfg.LinkBW
		}
	}
	return best
}

// MaxIOChannelOverlap returns the maximum number of I/O broadcast
// trees sharing one directed link — the hotspot multiplier of
// Figure 4(B). For an N×N mesh with 4N channels this is 2N−1; for the
// 5×4 baseline it is 9, giving the paper's (2·5−1)·128 GB/s = 1152 GB/s
// hotspot requirement.
func (m *Mesh) MaxIOChannelOverlap() int {
	count := make(map[netsim.LinkID]int)
	for i := range m.iocs {
		for _, l := range m.IOCLoadTree(i) {
			if l == m.iocs[i].toNPU {
				continue // controller's own attach link carries one stream
			}
			count[l]++
		}
	}
	max := 0
	for _, c := range count {
		if c > max {
			max = c
		}
	}
	return max
}

// StreamUtilization returns the fraction of I/O channel line rate
// sustainable when all channels stream concurrently: mesh links of
// capacity LinkBW must carry MaxIOChannelOverlap streams of rate
// IOCBW. The 5×4 baseline yields 750/1152 ≈ 0.65, Section 8.2's GPT-3
// analysis.
func (m *Mesh) StreamUtilization() float64 {
	need := float64(m.MaxIOChannelOverlap()) * m.cfg.IOCBW
	if need <= m.cfg.LinkBW {
		return 1
	}
	return m.cfg.LinkBW / need
}
