package topology

import (
	"fmt"
	"math"

	"github.com/wafernet/fred/internal/netsim"
)

// FredConfig parameterizes a FRED wafer fabric: a tree of FRED
// switches with NPUs at the leaves and one root. Section 6.1: "tree
// height and the BW across different levels are determined by the
// system size and physical constraints." The evaluated 20-NPU wafer
// is the 2-level instance (Figure 8, Section 6.2.3).
type FredConfig struct {
	NPUs int // NPUs on the wafer (paper: 20)
	// FanIn[k] is the number of children under each level-(k+1)
	// switch: FanIn[0] NPUs under a leaf (L1) switch (paper: 4),
	// FanIn[1] leaf switches under a level-2 switch, and so on. The
	// top level holds the one root, so the product of the fan-ins
	// must cover NPUs.
	FanIn []int
	// LevelBW[k] is the per-direction bandwidth of the links between
	// level k and level k+1: LevelBW[0] is the NPU↔L1 link (3 TB/s),
	// LevelBW[1] the L1↔L2 link (1.5 TB/s for Fred-A/B, 12 TB/s for
	// Fred-C/D).
	LevelBW     []float64
	IOCs        int     // I/O controllers, attached to L1 switches (18)
	IOCBW       float64 // per-direction controller bandwidth (128 GB/s)
	LinkLatency float64 // per-hop latency (20 ns)
	InNetwork   bool    // in-switch collective execution (Fred-B/D)
}

// configError reports the FredConfig field that Validate rejected.
type configError struct {
	Field, Reason string
}

func (e *configError) Error() string {
	return "topology: FredConfig." + e.Field + ": " + e.Reason
}

// Validate checks that the configuration describes a buildable
// fabric, returning a *configError naming the first bad field.
func (c FredConfig) Validate() error {
	if c.NPUs < 1 {
		return &configError{"NPUs", fmt.Sprintf("%d must be ≥ 1", c.NPUs)}
	}
	if len(c.FanIn) == 0 || len(c.FanIn) != len(c.LevelBW) {
		return &configError{"FanIn", fmt.Sprintf("%d levels, LevelBW has %d: must be non-empty and equal", len(c.FanIn), len(c.LevelBW))}
	}
	product := 1
	for k, f := range c.FanIn {
		if f < 1 {
			return &configError{"FanIn", fmt.Sprintf("level %d fan-in %d must be ≥ 1", k, f)}
		}
		if product > math.MaxInt/f {
			return &configError{"FanIn", fmt.Sprintf("fan-ins 0..%d overflow int", k)}
		}
		product *= f
	}
	if product < c.NPUs {
		return &configError{"FanIn", fmt.Sprintf("fan-ins cover %d < %d NPUs", product, c.NPUs)}
	}
	// The negated comparisons also reject NaN.
	for k, bw := range c.LevelBW {
		if !(bw > 0 && bw <= math.MaxFloat64) {
			return &configError{"LevelBW", fmt.Sprintf("level %d bandwidth %g must be finite and positive", k, bw)}
		}
	}
	if c.IOCs < 1 {
		return &configError{"IOCs", fmt.Sprintf("%d must be ≥ 1", c.IOCs)}
	}
	if !(c.IOCBW > 0 && c.IOCBW <= math.MaxFloat64) {
		return &configError{"IOCBW", fmt.Sprintf("bandwidth %g must be finite and positive", c.IOCBW)}
	}
	if !(c.LinkLatency >= 0 && c.LinkLatency <= math.MaxFloat64) {
		return &configError{"LinkLatency", fmt.Sprintf("latency %g must be finite and non-negative", c.LinkLatency)}
	}
	return nil
}

// FredVariant names one of the paper's Table 5 configurations.
type FredVariant string

// The four FRED variants of Table 5.
const (
	FredA FredVariant = "Fred-A" // mesh-equivalent bisection, endpoint collectives
	FredB FredVariant = "Fred-B" // mesh-equivalent bisection, in-network collectives
	FredC FredVariant = "Fred-C" // full 30 TB/s bisection, endpoint collectives
	FredD FredVariant = "Fred-D" // full 30 TB/s bisection, in-network collectives
)

// FredVariantConfig returns the Table 5 configuration for a variant:
// 20 NPUs, 4 under each of 5 L1 switches, one L2 root.
func FredVariantConfig(v FredVariant) FredConfig {
	cfg := FredConfig{
		NPUs:        20,
		FanIn:       []int{4, 5},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
	}
	switch v {
	case FredA:
		cfg.LevelBW = []float64{3e12, 1.5e12}
	case FredB:
		cfg.LevelBW = []float64{3e12, 1.5e12}
		cfg.InNetwork = true
	case FredC:
		cfg.LevelBW = []float64{3e12, 12e12}
	case FredD:
		cfg.LevelBW = []float64{3e12, 12e12}
		cfg.InNetwork = true
	default:
		panic(fmt.Sprintf("topology: unknown FRED variant %q", v))
	}
	return cfg
}

type fredIOC struct {
	l1    int
	node  netsim.NodeID
	up    netsim.LinkID // ioc -> L1
	down  netsim.LinkID // L1 -> ioc
	load  []netsim.LinkID
	store []netsim.LinkID
}

// FredFabric is the hierarchical FRED wafer fabric: NPUs and I/O
// controllers hang off leaf (L1) switches, and each level's switches
// hang off the level above, up to a single (logical) root. Because
// every FRED switch is internally nonblocking for the routed flow sets
// (Section 5), switch traversal is modelled as contention-free: only
// the fabric links carry load.
type FredFabric struct {
	cfg     FredConfig
	variant FredVariant
	net     *netsim.Network
	levels  []fredLevel // levels[0] = the L1 switches, last = the root
	npus    []netsim.NodeID
	npuUp   []netsim.LinkID // npu -> its L1
	npuDown []netsim.LinkID // L1 -> npu
	iocs    []fredIOC
}

// fredLevel is one level of FRED switches.
type fredLevel struct {
	// span is the number of NPU positions under one switch of the
	// level, the product of the fan-ins up to it, so NPU n sits under
	// the level's switch n / span.
	span int
	// up[i] and down[i] link switch i with its parent; nil at the root.
	up, down []netsim.LinkID
}

// NewFredFabric builds a FRED fabric in the given network, top-down:
// the root, then each level's switches with their links to the level
// above, then the NPUs, then the I/O controllers (attached round-robin
// to the L1 switches). It panics with Validate's error on an invalid
// configuration.
func NewFredFabric(net *netsim.Network, cfg FredConfig) *FredFabric {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	f := &FredFabric{cfg: cfg, net: net, variant: "custom",
		levels:  make([]fredLevel, len(cfg.FanIn)),
		npus:    make([]netsim.NodeID, 0, cfg.NPUs),
		npuUp:   make([]netsim.LinkID, 0, cfg.NPUs),
		npuDown: make([]netsim.LinkID, 0, cfg.NPUs),
		iocs:    make([]fredIOC, 0, cfg.IOCs),
	}
	span := 1
	for k, fan := range cfg.FanIn {
		span *= fan
		f.levels[k].span = span
	}
	var nm namer
	top := len(f.levels) - 1
	parents := []netsim.NodeID{net.AddNode()}
	for k := top - 1; k >= 0; k-- {
		lv := &f.levels[k]
		n := (cfg.NPUs + lv.span - 1) / lv.span
		nodes := make([]netsim.NodeID, n)
		lv.up, lv.down = make([]netsim.LinkID, n), make([]netsim.LinkID, n)
		for i := range nodes {
			p := i / cfg.FanIn[k+1]
			nodes[i] = net.AddNode()
			lv.up[i] = net.AddLink(nodes[i], parents[p], cfg.LevelBW[k+1], cfg.LinkLatency, nm.sw(f, k, i).s("->").sw(f, k+1, p).done())
			lv.down[i] = net.AddLink(parents[p], nodes[i], cfg.LevelBW[k+1], cfg.LinkLatency, nm.sw(f, k+1, p).s("->").sw(f, k, i).done())
		}
		parents = nodes
	}
	l1s := parents
	for i := 0; i < cfg.NPUs; i++ {
		npu := net.AddNode()
		f.npus = append(f.npus, npu)
		l1 := l1s[i/cfg.FanIn[0]]
		f.npuUp = append(f.npuUp, net.AddLink(npu, l1, cfg.LevelBW[0], cfg.LinkLatency, nm.s("npu").i(i).s("->l1").done()))
		f.npuDown = append(f.npuDown, net.AddLink(l1, npu, cfg.LevelBW[0], cfg.LinkLatency, nm.s("l1->npu").i(i).done()))
	}
	for i := 0; i < cfg.IOCs; i++ {
		l1 := i % len(l1s)
		node := net.AddNode()
		f.iocs = append(f.iocs, fredIOC{
			l1:   l1,
			node: node,
			up:   net.AddLink(node, l1s[l1], cfg.IOCBW, cfg.LinkLatency, nm.s("ioc").i(i).s("->").sw(f, 0, l1).done()),
			down: net.AddLink(l1s[l1], node, cfg.IOCBW, cfg.LinkLatency, nm.sw(f, 0, l1).s("->ioc").i(i).done()),
		})
	}
	return f
}

// sw appends the name of level-k switch i: "l2" for the root of a
// 2-level fabric, "l1.3" for its fourth L1 switch.
func (b *namer) sw(f *FredFabric, k, i int) *namer {
	b.s("l").i(k + 1)
	if k < len(f.levels)-1 {
		b.s(".").i(i)
	}
	return b
}

// NewFredVariant builds one of the Table 5 FRED configurations.
func NewFredVariant(net *netsim.Network, v FredVariant) *FredFabric {
	f := NewFredFabric(net, FredVariantConfig(v))
	f.variant = v
	return f
}

// Config returns the fabric's configuration.
func (f *FredFabric) Config() FredConfig { return f.cfg }

// InNetwork reports whether the fabric performs in-switch collective
// execution (Fred-B/D).
func (f *FredFabric) InNetwork() bool { return f.cfg.InNetwork }

// CircuitSwitched implements Wafer: the FRED switches execute one
// communication class at a time (Section 5.4).
func (f *FredFabric) CircuitSwitched() bool { return true }

// Name implements Wafer.
func (f *FredFabric) Name() string { return string(f.variant) }

// Network implements Wafer.
func (f *FredFabric) Network() *netsim.Network { return f.net }

// Levels returns the number of switch levels, the root's included.
func (f *FredFabric) Levels() int { return len(f.levels) }

// NPUCount implements Wafer.
func (f *FredFabric) NPUCount() int { return len(f.npus) }

// IOCCount implements Wafer.
func (f *FredFabric) IOCCount() int { return len(f.iocs) }

// L1Count returns the number of leaf switches.
func (f *FredFabric) L1Count() int { return (len(f.npus) + f.levels[0].span - 1) / f.levels[0].span }

// L1Of returns the leaf switch index of an NPU.
func (f *FredFabric) L1Of(npu int) int { return npu / f.levels[0].span }

// UpLink returns the up link at a level of an NPU's path to the root:
// level 0 is the NPU→L1 link, level k the link from its level-k switch
// (L1 = 1) to the level above.
func (f *FredFabric) UpLink(npu, level int) netsim.LinkID {
	if level == 0 {
		return f.npuUp[npu]
	}
	lv := &f.levels[level-1]
	return lv.up[npu/lv.span]
}

// DownLink returns the down link mirroring UpLink(npu, level).
func (f *FredFabric) DownLink(npu, level int) netsim.LinkID {
	if level == 0 {
		return f.npuDown[npu]
	}
	lv := &f.levels[level-1]
	return lv.down[npu/lv.span]
}

// L1UpLink returns the up link of a leaf switch.
func (f *FredFabric) L1UpLink(l1 int) netsim.LinkID { return f.levels[0].up[l1] }

// L1DownLink returns the down link of a leaf switch.
func (f *FredFabric) L1DownLink(l1 int) netsim.LinkID { return f.levels[0].down[l1] }

// NPUPortBW implements Wafer.
func (f *FredFabric) NPUPortBW() float64 { return f.cfg.LevelBW[0] }

// IOCBW implements Wafer.
func (f *FredFabric) IOCBW() float64 { return f.cfg.IOCBW }

// meet returns how many switch levels a route between the L1s of NPU
// positions a and b climbs above them: 0 under one L1, 1 through a
// 2-level root.
func (f *FredFabric) meet(a, b int) int {
	k := 0
	for a/f.levels[k].span != b/f.levels[k].span {
		k++
	}
	return k
}

// path returns first, the up links from the L1 of NPU position a to the
// lowest switch above both a and b, the down links from there to b's
// L1, and last.
func (f *FredFabric) path(first netsim.LinkID, a, b int, last netsim.LinkID) []netsim.LinkID {
	top := f.meet(a, b)
	p := make([]netsim.LinkID, 2*top+2)
	p[0], p[len(p)-1] = first, last
	for k, lv := range f.levels[:top] {
		p[1+k] = lv.up[a/lv.span]
		p[len(p)-2-k] = lv.down[b/lv.span]
	}
	return p
}

// Route implements Wafer: up to the shared switch level, then down.
func (f *FredFabric) Route(src, dst int) []netsim.LinkID {
	if src == dst {
		return nil
	}
	return f.path(f.npuUp[src], src, dst, f.npuDown[dst])
}

// RouteLatency implements Wafer: the up-down route's cut-through
// latency (2 hops under one leaf, 4 across a 2-level root).
func (f *FredFabric) RouteLatency(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return float64(2*f.meet(src, dst)+2) * f.cfg.LinkLatency
}

// IOCLoadTree implements Wafer: the controller's stream climbs from
// its L1 to the root, and every other switch passes it down to the
// NPUs below.
func (f *FredFabric) IOCLoadTree(ioc int) []netsim.LinkID {
	c := &f.iocs[ioc]
	if c.load != nil {
		return c.load
	}
	out := make([]netsim.LinkID, 0, 1+len(f.npuDown)+f.switchesBelowRoot())
	out = append(out, c.up)
	pos, below := f.position(c), f.levels[:len(f.levels)-1]
	for _, lv := range below {
		out = append(out, lv.up[pos/lv.span])
	}
	for k := len(below) - 1; k >= 0; k-- {
		for i, id := range below[k].down {
			if i != pos/below[k].span {
				out = append(out, id)
			}
		}
	}
	out = append(out, f.npuDown...)
	c.load = out
	return out
}

// IOCStoreTree implements Wafer: every NPU's contribution climbs to
// its L1 (reduced there for in-network variants, forwarded otherwise),
// every switch off the controller's path forwards up, and the root
// sends the result down to the controller's L1 and out. Link
// occupancy is identical either way; in-network execution matters for
// NPU-side traffic, not for the tree shape.
func (f *FredFabric) IOCStoreTree(ioc int) []netsim.LinkID {
	c := &f.iocs[ioc]
	if c.store != nil {
		return c.store
	}
	out := make([]netsim.LinkID, 0, len(f.npuUp)+f.switchesBelowRoot()+1)
	out = append(out, f.npuUp...)
	pos, below := f.position(c), f.levels[:len(f.levels)-1]
	for _, lv := range below {
		for i, id := range lv.up {
			if i != pos/lv.span {
				out = append(out, id)
			}
		}
	}
	for k := len(below) - 1; k >= 0; k-- {
		out = append(out, below[k].down[pos/below[k].span])
	}
	out = append(out, c.down)
	c.store = out
	return out
}

// switchesBelowRoot returns the number of switches below the root, each
// with one up and one down link.
func (f *FredFabric) switchesBelowRoot() int {
	n := 0
	for _, lv := range f.levels {
		n += len(lv.up)
	}
	return n
}

// IOCToNPU implements Wafer.
func (f *FredFabric) IOCToNPU(ioc, npu int) []netsim.LinkID {
	c := &f.iocs[ioc]
	return f.path(c.up, f.position(c), npu, f.npuDown[npu])
}

// NPUToIOC implements Wafer.
func (f *FredFabric) NPUToIOC(npu, ioc int) []netsim.LinkID {
	c := &f.iocs[ioc]
	return f.path(f.npuUp[npu], npu, f.position(c), c.down)
}

// position returns the first NPU position under a controller's L1,
// which shares all of the controller's ancestors.
func (f *FredFabric) position(c *fredIOC) int { return c.l1 * f.levels[0].span }

// NearestIOC implements Wafer: controllers under the NPU's own L1,
// spread round-robin (the (npu mod n)-th of the L1's n controllers);
// any controller, round-robin, when the L1 has none.
func (f *FredFabric) NearestIOC(npu int) int {
	// NewFredFabric hangs controller i under L1 i mod L1Count, so L1
	// l1 holds controllers l1, l1+L1Count, ... below len(f.iocs).
	l1, leaves := f.L1Of(npu), f.L1Count()
	n := (len(f.iocs) - l1 + leaves - 1) / leaves
	if n == 0 {
		return npu % len(f.iocs)
	}
	return l1 + npu%n*leaves
}

// BisectionBW implements Wafer: half the aggregate capacity into the
// root — 30 TB/s for Fred-C/D, 3.75 TB/s for Fred-A/B (Table 5).
func (f *FredFabric) BisectionBW() float64 {
	top := len(f.levels) - 1
	if top == 0 {
		return float64(len(f.npus)) * f.cfg.LevelBW[0] / 2
	}
	return float64(len(f.levels[top-1].up)) * f.cfg.LevelBW[top] / 2
}

// StreamUtilization returns the sustainable fraction of I/O line rate
// when all controllers stream concurrently. Each switch link above the
// L1s carries all controller streams; with 12 TB/s L1-L2 links the
// 18×128 GB/s aggregate fits and utilisation is 1.0 (Section 8.2).
func (f *FredFabric) StreamUtilization() float64 {
	aggregate := float64(len(f.iocs)) * f.cfg.IOCBW
	util := 1.0
	for _, bw := range f.cfg.LevelBW[1:] {
		if aggregate > bw && bw/aggregate < util {
			util = bw / aggregate
		}
	}
	return util
}
