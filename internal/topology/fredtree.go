package topology

import (
	"fmt"

	"github.com/wafernet/fred/internal/netsim"
)

// TreeConfig sizes a multi-level FRED fabric. Section 6.1: "the FRED
// fabric provides a hierarchical design for the scalable connection of
// large wafer-scale systems. In general, tree height and the BW across
// different levels are determined by the system size and physical
// constraints." The evaluated 20-NPU instance is the 2-level special
// case (FredFabric); FredTree generalises to any height.
type TreeConfig struct {
	// NPUs is the leaf count.
	NPUs int
	// FanIn[k] is the number of children each level-(k+1) switch
	// aggregates: FanIn[0] children are NPUs under a leaf switch,
	// FanIn[1] leaf switches under a level-2 switch, and so on. The
	// product of fan-ins must be ≥ NPUs.
	FanIn []int
	// LevelBW[k] is the per-direction bandwidth of the links between
	// level k and level k+1 (LevelBW[0] is the NPU↔leaf link).
	LevelBW []float64
	// IOCs are attached round-robin to the leaf switches.
	IOCs  int
	IOCBW float64
	// LinkLatency applies per hop.
	LinkLatency float64
	// InNetwork enables in-switch collective execution.
	InNetwork bool
}

// Validate checks structural consistency.
func (c TreeConfig) Validate() error {
	if c.NPUs < 1 {
		return fmt.Errorf("topology: tree needs NPUs ≥ 1")
	}
	if len(c.FanIn) == 0 || len(c.FanIn) != len(c.LevelBW) {
		return fmt.Errorf("topology: FanIn and LevelBW must be non-empty and equal length")
	}
	cap := 1
	for _, f := range c.FanIn {
		if f < 1 {
			return fmt.Errorf("topology: fan-in must be ≥ 1")
		}
		cap *= f
	}
	if cap < c.NPUs {
		return fmt.Errorf("topology: tree capacity %d < %d NPUs", cap, c.NPUs)
	}
	return nil
}

// treeNode is one switch in the hierarchy.
type treeNode struct {
	node     netsim.NodeID
	parent   int // index into the next level's switches; -1 at the root level
	up, down netsim.LinkID
}

// FredTree is a multi-level FRED fabric: NPUs at the leaves, FanIn[k]
// children per switch at each level, a single logical root. Switch
// traversal is contention-free (the FRED interconnect is nonblocking
// for routed flow sets); the level links carry the load.
type FredTree struct {
	cfg    TreeConfig
	net    *netsim.Network
	npus   []netsim.NodeID
	npuUp  []netsim.LinkID
	npuDwn []netsim.LinkID
	npuPar []int         // leaf-switch index of each NPU
	levels [][]*treeNode // levels[0] = leaf switches, last = root(s)
	iocs   []fredIOC
}

// NewFredTree builds the fabric. The top level is collapsed into a
// single root switch when the fan-ins leave more than one.
func NewFredTree(net *netsim.Network, cfg TreeConfig) *FredTree {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	t := &FredTree{cfg: cfg, net: net}

	// Number of switches per level.
	counts := make([]int, len(cfg.FanIn))
	prev := cfg.NPUs
	for k, f := range cfg.FanIn {
		counts[k] = (prev + f - 1) / f
		prev = counts[k]
	}
	// Force a single root: collapse the last level to one switch.
	counts[len(counts)-1] = 1

	t.levels = make([][]*treeNode, len(counts))
	var nm namer
	for k := len(counts) - 1; k >= 0; k-- {
		t.levels[k] = make([]*treeNode, counts[k])
		for i := range t.levels[k] {
			n := &treeNode{node: net.AddNode(nm.s("fredtree-l").i(k + 1).s(".").i(i).done()), parent: -1}
			t.levels[k][i] = n
			if k < len(counts)-1 {
				pIdx := i / cfg.FanIn[k+1]
				if pIdx >= counts[k+1] {
					pIdx = counts[k+1] - 1
				}
				p := t.levels[k+1][pIdx]
				n.parent = pIdx
				bw := cfg.LevelBW[k+1]
				n.up = net.AddLink(n.node, p.node, bw, cfg.LinkLatency, nm.s("l").i(k+1).s(".").i(i).s("->l").i(k+2).s(".").i(pIdx).done())
				n.down = net.AddLink(p.node, n.node, bw, cfg.LinkLatency, nm.s("l").i(k+2).s(".").i(pIdx).s("->l").i(k+1).s(".").i(i).done())
			}
		}
	}
	for i := 0; i < cfg.NPUs; i++ {
		leaf := i / cfg.FanIn[0]
		if leaf >= counts[0] {
			leaf = counts[0] - 1
		}
		node := net.AddNode(nm.s("npu").i(i).done())
		t.npus = append(t.npus, node)
		t.npuPar = append(t.npuPar, leaf)
		l := t.levels[0][leaf]
		t.npuUp = append(t.npuUp, net.AddLink(node, l.node, cfg.LevelBW[0], cfg.LinkLatency, nm.s("npu").i(i).s("->leaf").done()))
		t.npuDwn = append(t.npuDwn, net.AddLink(l.node, node, cfg.LevelBW[0], cfg.LinkLatency, nm.s("leaf->npu").i(i).done()))
	}
	for i := 0; i < cfg.IOCs; i++ {
		leaf := i % counts[0]
		node := net.AddNode(nm.s("ioc").i(i).done())
		t.iocs = append(t.iocs, fredIOC{
			l1:   leaf,
			node: node,
			up:   net.AddLink(node, t.levels[0][leaf].node, cfg.IOCBW, cfg.LinkLatency, nm.s("ioc").i(i).s("->leaf").done()),
			down: net.AddLink(t.levels[0][leaf].node, node, cfg.IOCBW, cfg.LinkLatency, nm.s("leaf->ioc").i(i).done()),
		})
	}
	return t
}

// Config returns the tree's configuration.
func (t *FredTree) Config() TreeConfig { return t.cfg }

// InNetwork reports in-switch collective support.
func (t *FredTree) InNetwork() bool { return t.cfg.InNetwork }

// CircuitSwitched implements Wafer. The multi-level tree is studied
// only by collective sweeps, which run no circuit discipline.
func (t *FredTree) CircuitSwitched() bool { return false }

// Levels returns the switch-level count (tree height above the NPUs).
func (t *FredTree) Levels() int { return len(t.levels) }

// Name implements Wafer.
func (t *FredTree) Name() string { return fmt.Sprintf("fred-tree-%dL", len(t.levels)) }

// Network implements Wafer.
func (t *FredTree) Network() *netsim.Network { return t.net }

// NPUCount implements Wafer.
func (t *FredTree) NPUCount() int { return len(t.npus) }

// IOCCount implements Wafer.
func (t *FredTree) IOCCount() int { return len(t.iocs) }

// NPUPortBW implements Wafer.
func (t *FredTree) NPUPortBW() float64 { return t.cfg.LevelBW[0] }

// IOCBW implements Wafer.
func (t *FredTree) IOCBW() float64 { return t.cfg.IOCBW }

// switchPath returns the switch indices of the NPU's ancestors, one
// per level (leaf first).
func (t *FredTree) switchPath(npu int) []int {
	path := make([]int, len(t.levels))
	idx := t.npuPar[npu]
	for k := 0; k < len(t.levels); k++ {
		path[k] = idx
		if k+1 < len(t.levels) {
			idx = t.levels[k][idx].parent
		}
	}
	return path
}

// Route implements Wafer: climb to the lowest common ancestor, then
// descend.
func (t *FredTree) Route(src, dst int) []netsim.LinkID {
	if src == dst {
		return nil
	}
	sp, dp := t.switchPath(src), t.switchPath(dst)
	// Find the lowest level where the ancestors coincide.
	lca := 0
	for lca < len(t.levels) && sp[lca] != dp[lca] {
		lca++
	}
	links := []netsim.LinkID{t.npuUp[src]}
	for k := 0; k < lca; k++ {
		links = append(links, t.levels[k][sp[k]].up)
	}
	for k := lca - 1; k >= 0; k-- {
		links = append(links, t.levels[k][dp[k]].down)
	}
	return append(links, t.npuDwn[dst])
}

// RouteLatency implements Wafer: the tree route's cut-through latency.
func (t *FredTree) RouteLatency(src, dst int) float64 {
	return float64(len(t.Route(src, dst))) * t.cfg.LinkLatency
}

// UpPath returns the NPU's up-links to the given level (0 = only the
// NPU link).
func (t *FredTree) UpPath(npu, toLevel int) []netsim.LinkID {
	links := []netsim.LinkID{t.npuUp[npu]}
	path := t.switchPath(npu)
	for k := 0; k < toLevel && k+1 < len(t.levels)+1 && k < len(t.levels); k++ {
		if t.levels[k][path[k]].parent < 0 {
			break
		}
		links = append(links, t.levels[k][path[k]].up)
	}
	return links
}

// InNetworkAllReduceLinks returns the links of the minimal in-switch
// reduction/broadcast tree spanning the group: every member's up and
// down NPU links, plus both directions of every switch link below the
// group's lowest common subtree root.
func (t *FredTree) InNetworkAllReduceLinks(group []int) []netsim.LinkID {
	var links []netsim.LinkID
	// Determine the LCA level: the lowest level at which all members
	// share an ancestor.
	lca := 0
	if len(group) > 1 {
		base := t.switchPath(group[0])
		for _, m := range group[1:] {
			p := t.switchPath(m)
			k := 0
			for k < len(t.levels) && p[k] != base[k] {
				k++
			}
			if k > lca {
				lca = k
			}
		}
	}
	seen := map[netsim.LinkID]bool{}
	add := func(ls ...netsim.LinkID) {
		for _, l := range ls {
			if !seen[l] {
				seen[l] = true
				links = append(links, l)
			}
		}
	}
	for _, m := range group {
		add(t.npuUp[m], t.npuDwn[m])
		path := t.switchPath(m)
		for k := 0; k < lca; k++ {
			n := t.levels[k][path[k]]
			add(n.up, n.down)
		}
	}
	return links
}

// IOCLoadTree implements Wafer: the stream climbs to the root and fans
// down through every switch to every NPU.
func (t *FredTree) IOCLoadTree(ioc int) []netsim.LinkID {
	c := &t.iocs[ioc]
	if c.load != nil {
		return c.load
	}
	links := []netsim.LinkID{c.up}
	// Up from the attach leaf to the root.
	idx := c.l1
	for k := 0; k+1 < len(t.levels); k++ {
		links = append(links, t.levels[k][idx].up)
		idx = t.levels[k][idx].parent
	}
	// Down through every switch except the IOC's own up-path.
	for k := len(t.levels) - 2; k >= 0; k-- {
		for _, n := range t.levels[k] {
			links = append(links, n.down)
		}
	}
	links = append(links, t.npuDwn...)
	c.load = dedupeLinks(links)
	return c.load
}

// IOCStoreTree implements Wafer: the mirror reduction tree.
func (t *FredTree) IOCStoreTree(ioc int) []netsim.LinkID {
	c := &t.iocs[ioc]
	if c.store != nil {
		return c.store
	}
	links := append([]netsim.LinkID{}, t.npuUp...)
	for k := 0; k+1 < len(t.levels); k++ {
		for _, n := range t.levels[k] {
			links = append(links, n.up)
		}
	}
	// Down from the root to the IOC's leaf.
	path := make([]int, 0, len(t.levels))
	idx := c.l1
	for k := 0; k < len(t.levels); k++ {
		path = append(path, idx)
		if k+1 < len(t.levels) {
			idx = t.levels[k][idx].parent
		}
	}
	for k := len(t.levels) - 2; k >= 0; k-- {
		links = append(links, t.levels[k][path[k]].down)
	}
	links = append(links, c.down)
	c.store = dedupeLinks(links)
	return c.store
}

// IOCToNPU implements Wafer.
func (t *FredTree) IOCToNPU(ioc, npu int) []netsim.LinkID {
	c := t.iocs[ioc]
	// Treat the controller as hanging off its leaf: route leaf→npu.
	links := []netsim.LinkID{c.up}
	sp := t.switchPath(npu)
	if sp[0] == c.l1 {
		return append(links, t.npuDwn[npu])
	}
	// Climb from the IOC leaf to the common ancestor, then descend.
	iocPath := make([]int, len(t.levels))
	idx := c.l1
	for k := 0; k < len(t.levels); k++ {
		iocPath[k] = idx
		if k+1 < len(t.levels) {
			idx = t.levels[k][idx].parent
		}
	}
	lca := 0
	for lca < len(t.levels) && iocPath[lca] != sp[lca] {
		lca++
	}
	for k := 0; k < lca; k++ {
		links = append(links, t.levels[k][iocPath[k]].up)
	}
	for k := lca - 1; k >= 0; k-- {
		links = append(links, t.levels[k][sp[k]].down)
	}
	return append(links, t.npuDwn[npu])
}

// NPUToIOC implements Wafer.
func (t *FredTree) NPUToIOC(npu, ioc int) []netsim.LinkID {
	c := t.iocs[ioc]
	sp := t.switchPath(npu)
	links := []netsim.LinkID{t.npuUp[npu]}
	if sp[0] == c.l1 {
		return append(links, c.down)
	}
	iocPath := make([]int, len(t.levels))
	idx := c.l1
	for k := 0; k < len(t.levels); k++ {
		iocPath[k] = idx
		if k+1 < len(t.levels) {
			idx = t.levels[k][idx].parent
		}
	}
	lca := 0
	for lca < len(t.levels) && iocPath[lca] != sp[lca] {
		lca++
	}
	for k := 0; k < lca; k++ {
		links = append(links, t.levels[k][sp[k]].up)
	}
	for k := lca - 1; k >= 0; k-- {
		links = append(links, t.levels[k][iocPath[k]].down)
	}
	return append(links, c.down)
}

// NearestIOC implements Wafer.
func (t *FredTree) NearestIOC(npu int) int {
	leaf := t.npuPar[npu]
	var candidates []int
	for i, c := range t.iocs {
		if c.l1 == leaf {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return npu % len(t.iocs)
	}
	return candidates[npu%len(candidates)]
}

// BisectionBW implements Wafer: half the aggregate capacity into the
// root level.
func (t *FredTree) BisectionBW() float64 {
	if len(t.levels) == 1 {
		return float64(len(t.npus)) * t.cfg.LevelBW[0] / 2
	}
	top := len(t.levels) - 2
	return float64(len(t.levels[top])) * t.cfg.LevelBW[top+1] / 2
}

// StreamUtilization mirrors FredFabric: the narrowest level link must
// carry the aggregate controller bandwidth.
func (t *FredTree) StreamUtilization() float64 {
	aggregate := float64(len(t.iocs)) * t.cfg.IOCBW
	util := 1.0
	for _, bw := range t.cfg.LevelBW[1:] {
		if aggregate > bw {
			if f := bw / aggregate; f < util {
				util = f
			}
		}
	}
	return util
}

func dedupeLinks(in []netsim.LinkID) []netsim.LinkID {
	seen := make(map[netsim.LinkID]bool, len(in))
	out := in[:0]
	for _, l := range in {
		if !seen[l] {
			seen[l] = true
			out = append(out, l)
		}
	}
	return out
}
