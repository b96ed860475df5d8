package topology

import (
	"fmt"

	"github.com/wafernet/fred/internal/netsim"
)

// FredConfig parameterizes a FRED wafer fabric: a 2-level (almost)
// fat-tree of FRED switches (Figure 8, Section 6.2.3).
type FredConfig struct {
	NPUs        int     // NPUs on the wafer (paper: 20)
	NPUsPerL1   int     // NPUs under each leaf switch (paper: 4)
	NPULinkBW   float64 // per-direction NPU↔L1 bandwidth (3 TB/s)
	L1L2BW      float64 // per-direction L1↔L2 bandwidth (1.5 TB/s for Fred-A/B, 12 TB/s for Fred-C/D)
	IOCs        int     // I/O controllers, attached to L1 switches (18)
	IOCBW       float64 // per-direction controller bandwidth (128 GB/s)
	LinkLatency float64 // per-hop latency (20 ns)
	InNetwork   bool    // in-switch collective execution (Fred-B/D)
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

// FredVariantConfig returns the Table 5 configuration for a variant.
func FredVariantConfig(v FredVariant) FredConfig {
	cfg := FredConfig{
		NPUs:        20,
		NPUsPerL1:   4,
		NPULinkBW:   3e12,
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
	}
	switch v {
	case FredA:
		cfg.L1L2BW = 1.5e12
	case FredB:
		cfg.L1L2BW = 1.5e12
		cfg.InNetwork = true
	case FredC:
		cfg.L1L2BW = 12e12
	case FredD:
		cfg.L1L2BW = 12e12
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
// controllers hang off L1 switches; L1 switches connect to a single
// (logical) L2 switch. Because every FRED switch is internally
// nonblocking for the routed flow sets (Section 5), switch traversal
// is modelled as contention-free: only the fabric links carry load.
type FredFabric struct {
	cfg     FredConfig
	variant FredVariant
	net     *netsim.Network
	npus    []netsim.NodeID
	l1s     []netsim.NodeID
	l2      netsim.NodeID
	npuUp   []netsim.LinkID // npu -> its L1
	npuDown []netsim.LinkID // L1 -> npu
	l1Up    []netsim.LinkID // L1 -> L2
	l1Down  []netsim.LinkID // L2 -> L1
	iocs    []fredIOC
}

// NewFredFabric builds a FRED fabric in the given network.
func NewFredFabric(net *netsim.Network, cfg FredConfig) *FredFabric {
	if cfg.NPUs <= 0 || cfg.NPUsPerL1 <= 0 {
		panic("topology: FredConfig NPU counts must be positive")
	}
	numL1 := (cfg.NPUs + cfg.NPUsPerL1 - 1) / cfg.NPUsPerL1
	f := &FredFabric{cfg: cfg, net: net, variant: "custom",
		npus:    make([]netsim.NodeID, 0, cfg.NPUs),
		l1s:     make([]netsim.NodeID, 0, numL1),
		npuUp:   make([]netsim.LinkID, 0, cfg.NPUs),
		npuDown: make([]netsim.LinkID, 0, cfg.NPUs),
		l1Up:    make([]netsim.LinkID, 0, numL1),
		l1Down:  make([]netsim.LinkID, 0, numL1),
		iocs:    make([]fredIOC, 0, max(cfg.IOCs, 0)),
	}
	f.l2 = net.AddNode("fred-l2")
	var nm namer
	for i := 0; i < numL1; i++ {
		l1 := net.AddNode(nm.s("fred-l1.").i(i).done())
		f.l1s = append(f.l1s, l1)
		f.l1Up = append(f.l1Up, net.AddLink(l1, f.l2, cfg.L1L2BW, cfg.LinkLatency, nm.s("l1.").i(i).s("->l2").done()))
		f.l1Down = append(f.l1Down, net.AddLink(f.l2, l1, cfg.L1L2BW, cfg.LinkLatency, nm.s("l2->l1.").i(i).done()))
	}
	for i := 0; i < cfg.NPUs; i++ {
		npu := net.AddNode(nm.s("npu").i(i).done())
		f.npus = append(f.npus, npu)
		l1 := f.l1s[i/cfg.NPUsPerL1]
		f.npuUp = append(f.npuUp, net.AddLink(npu, l1, cfg.NPULinkBW, cfg.LinkLatency, nm.s("npu").i(i).s("->l1").done()))
		f.npuDown = append(f.npuDown, net.AddLink(l1, npu, cfg.NPULinkBW, cfg.LinkLatency, nm.s("l1->npu").i(i).done()))
	}
	for i := 0; i < cfg.IOCs; i++ {
		l1 := i % numL1
		node := net.AddNode(nm.s("ioc").i(i).done())
		f.iocs = append(f.iocs, fredIOC{
			l1:   l1,
			node: node,
			up:   net.AddLink(node, f.l1s[l1], cfg.IOCBW, cfg.LinkLatency, nm.s("ioc").i(i).s("->l1.").i(l1).done()),
			down: net.AddLink(f.l1s[l1], node, cfg.IOCBW, cfg.LinkLatency, nm.s("l1.").i(l1).s("->ioc").i(i).done()),
		})
	}
	return f
}

// NewFredVariant builds one of the Table 5 FRED configurations.
func NewFredVariant(net *netsim.Network, v FredVariant) *FredFabric {
	f := NewFredFabric(net, FredVariantConfig(v))
	f.variant = v
	return f
}

// Config returns the fabric's configuration.
func (f *FredFabric) Config() FredConfig { return f.cfg }

// Variant returns the Table 5 variant name, or "custom".
func (f *FredFabric) Variant() FredVariant { return f.variant }

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

// NPUCount implements Wafer.
func (f *FredFabric) NPUCount() int { return len(f.npus) }

// IOCCount implements Wafer.
func (f *FredFabric) IOCCount() int { return len(f.iocs) }

// L1Count returns the number of leaf switches.
func (f *FredFabric) L1Count() int { return len(f.l1s) }

// L1Of returns the leaf switch index of an NPU.
func (f *FredFabric) L1Of(npu int) int { return npu / f.cfg.NPUsPerL1 }

// NPUsUnder returns the NPU indices attached to a leaf switch.
func (f *FredFabric) NPUsUnder(l1 int) []int {
	var out []int
	for i := l1 * f.cfg.NPUsPerL1; i < (l1+1)*f.cfg.NPUsPerL1 && i < f.cfg.NPUs; i++ {
		out = append(out, i)
	}
	return out
}

// UpLink returns the NPU→L1 link of an NPU.
func (f *FredFabric) UpLink(npu int) netsim.LinkID { return f.npuUp[npu] }

// DownLink returns the L1→NPU link of an NPU.
func (f *FredFabric) DownLink(npu int) netsim.LinkID { return f.npuDown[npu] }

// L1UpLink returns the L1→L2 link of a leaf switch.
func (f *FredFabric) L1UpLink(l1 int) netsim.LinkID { return f.l1Up[l1] }

// L1DownLink returns the L2→L1 link of a leaf switch.
func (f *FredFabric) L1DownLink(l1 int) netsim.LinkID { return f.l1Down[l1] }

// NPUPortBW implements Wafer.
func (f *FredFabric) NPUPortBW() float64 { return f.cfg.NPULinkBW }

// IOCBW implements Wafer.
func (f *FredFabric) IOCBW() float64 { return f.cfg.IOCBW }

// Route implements Wafer: up to the shared switch level, then down.
func (f *FredFabric) Route(src, dst int) []netsim.LinkID {
	if src == dst {
		return nil
	}
	if f.L1Of(src) == f.L1Of(dst) {
		return []netsim.LinkID{f.npuUp[src], f.npuDown[dst]}
	}
	return []netsim.LinkID{
		f.npuUp[src], f.l1Up[f.L1Of(src)],
		f.l1Down[f.L1Of(dst)], f.npuDown[dst],
	}
}

// RouteLatency implements Wafer: the up-down route's cut-through
// latency (2 hops under one leaf, 4 across the root).
func (f *FredFabric) RouteLatency(src, dst int) float64 {
	if src == dst {
		return 0
	}
	if f.L1Of(src) == f.L1Of(dst) {
		return 2 * f.cfg.LinkLatency
	}
	return 4 * f.cfg.LinkLatency
}

// IOCLoadTree implements Wafer: the controller's stream climbs to its
// L1, fans out to its local NPUs, climbs to L2 and descends through
// every other L1 to the remaining NPUs.
func (f *FredFabric) IOCLoadTree(ioc int) []netsim.LinkID {
	c := &f.iocs[ioc]
	if c.load != nil {
		return c.load
	}
	out := []netsim.LinkID{c.up}
	out = append(out, f.l1Up[c.l1])
	for l1 := range f.l1s {
		if l1 != c.l1 {
			out = append(out, f.l1Down[l1])
		}
	}
	out = append(out, f.npuDown...)
	c.load = out
	return out
}

// IOCStoreTree implements Wafer: every NPU's contribution climbs to
// its L1 (reduced there for in-network variants, forwarded otherwise),
// crosses to the controller's L1 via L2, and drains out. Link
// occupancy is identical either way; in-network execution matters for
// NPU-side traffic, not for the tree shape.
func (f *FredFabric) IOCStoreTree(ioc int) []netsim.LinkID {
	c := &f.iocs[ioc]
	if c.store != nil {
		return c.store
	}
	out := make([]netsim.LinkID, 0, len(f.npuUp)+len(f.l1s)+2)
	out = append(out, f.npuUp...)
	for l1 := range f.l1s {
		if l1 != c.l1 {
			out = append(out, f.l1Up[l1])
		}
	}
	out = append(out, f.l1Down[c.l1], c.down)
	c.store = out
	return out
}

// IOCToNPU implements Wafer.
func (f *FredFabric) IOCToNPU(ioc, npu int) []netsim.LinkID {
	c := f.iocs[ioc]
	if c.l1 == f.L1Of(npu) {
		return []netsim.LinkID{c.up, f.npuDown[npu]}
	}
	return []netsim.LinkID{c.up, f.l1Up[c.l1], f.l1Down[f.L1Of(npu)], f.npuDown[npu]}
}

// NPUToIOC implements Wafer.
func (f *FredFabric) NPUToIOC(npu, ioc int) []netsim.LinkID {
	c := f.iocs[ioc]
	if c.l1 == f.L1Of(npu) {
		return []netsim.LinkID{f.npuUp[npu], c.down}
	}
	return []netsim.LinkID{f.npuUp[npu], f.l1Up[f.L1Of(npu)], f.l1Down[c.l1], c.down}
}

// NearestIOC implements Wafer: controllers under the NPU's own L1,
// spread round-robin.
func (f *FredFabric) NearestIOC(npu int) int {
	l1 := f.L1Of(npu)
	var candidates []int
	for i, c := range f.iocs {
		if c.l1 == l1 {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return npu % len(f.iocs)
	}
	return candidates[npu%len(candidates)]
}

// BisectionBW implements Wafer: half the aggregate L1↔L2 capacity —
// 30 TB/s for Fred-C/D, 3.75 TB/s for Fred-A/B (Table 5).
func (f *FredFabric) BisectionBW() float64 {
	return float64(len(f.l1s)) * f.cfg.L1L2BW / 2
}

// StreamUtilization returns the sustainable fraction of I/O line rate
// when all controllers stream concurrently. Each L2→L1 link carries
// all controller streams; with 12 TB/s L1-L2 links the 18×128 GB/s
// aggregate fits and utilisation is 1.0 (Section 8.2).
func (f *FredFabric) StreamUtilization() float64 {
	aggregate := float64(len(f.iocs)) * f.cfg.IOCBW
	if aggregate <= f.cfg.L1L2BW {
		return 1
	}
	return f.cfg.L1L2BW / aggregate
}
