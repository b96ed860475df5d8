package topology

import (
	"fmt"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// The builders name nodes and links with a reused byte buffer instead
// of fmt.Sprintf. These tests rebuild every name with the format
// strings the builders used before and require byte equality, and
// that every link of the network was checked.

type nameCheck struct {
	t       *testing.T
	net     *netsim.Network
	checked map[netsim.LinkID]bool
}

func newNameCheck(t *testing.T, net *netsim.Network) *nameCheck {
	return &nameCheck{t: t, net: net, checked: make(map[netsim.LinkID]bool)}
}

func (c *nameCheck) link(id netsim.LinkID, format string, args ...any) {
	c.t.Helper()
	if got, want := c.net.Link(id).Name, fmt.Sprintf(format, args...); got != want {
		c.t.Errorf("link %d named %q, want %q", id, got, want)
	}
	c.checked[id] = true
}

func (c *nameCheck) node(id netsim.NodeID, format string, args ...any) {
	c.t.Helper()
	if got, want := c.net.NodeName(id), fmt.Sprintf(format, args...); got != want {
		c.t.Errorf("node %d named %q, want %q", id, got, want)
	}
}

func (c *nameCheck) all() {
	c.t.Helper()
	if len(c.checked) != c.net.NumLinks() {
		c.t.Errorf("checked %d of %d links", len(c.checked), c.net.NumLinks())
	}
}

// TestFredFabricNamesMatchFormat covers a three-leaf fabric with 12
// NPUs per leaf, so indices reach two digits on both sides of a name.
func TestFredFabricNamesMatchFormat(t *testing.T) {
	cfg := FredVariantConfig(FredD)
	cfg.NPUs, cfg.NPUsPerL1 = 36, 12
	net := netsim.New(sim.NewScheduler())
	f := NewFredFabric(net, cfg)
	c := newNameCheck(t, net)
	c.node(f.l2, "fred-l2")
	for i, l1 := range f.l1s {
		c.node(l1, "fred-l1.%d", i)
		c.link(f.l1Up[i], "l1.%d->l2", i)
		c.link(f.l1Down[i], "l2->l1.%d", i)
	}
	for i, npu := range f.npus {
		c.node(npu, "npu%d", i)
		c.link(f.npuUp[i], "npu%d->l1", i)
		c.link(f.npuDown[i], "l1->npu%d", i)
	}
	for i, ioc := range f.iocs {
		c.node(ioc.node, "ioc%d", i)
		c.link(ioc.up, "ioc%d->l1.%d", i, ioc.l1)
		c.link(ioc.down, "l1.%d->ioc%d", ioc.l1, i)
	}
	c.all()
}

func TestMeshNamesMatchFormat(t *testing.T) {
	cfg := DefaultMeshConfig()
	cfg.W, cfg.H = 12, 11
	net := netsim.New(sim.NewScheduler())
	m := NewMesh(net, cfg)
	c := newNameCheck(t, net)
	for i, npu := range m.npus {
		x, y := m.Coord(i)
		c.node(npu, "npu(%d,%d)", x, y)
	}
	for pair, id := range m.links {
		c.link(id, "mesh %d->%d", pair[0], pair[1])
	}
	for i, ioc := range m.iocs {
		c.node(ioc.node, "ioc%d", i)
		c.link(ioc.toNPU, "ioc%d->npu", i)
		c.link(ioc.fromNPU, "npu->ioc%d", i)
	}
	c.all()
}

func TestFredTreeNamesMatchFormat(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	tr := NewFredTree(net, TreeConfig{
		NPUs:        144,
		FanIn:       []int{12, 4, 3},
		LevelBW:     []float64{3e12, 12e12, 48e12},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
	})
	c := newNameCheck(t, net)
	for k, level := range tr.levels {
		for i, n := range level {
			c.node(n.node, "fredtree-l%d.%d", k+1, i)
			if k < len(tr.levels)-1 {
				c.link(n.up, "l%d.%d->l%d.%d", k+1, i, k+2, n.parent)
				c.link(n.down, "l%d.%d->l%d.%d", k+2, n.parent, k+1, i)
			}
		}
	}
	for i, npu := range tr.npus {
		c.node(npu, "npu%d", i)
		c.link(tr.npuUp[i], "npu%d->leaf", i)
		c.link(tr.npuDwn[i], "leaf->npu%d", i)
	}
	for i, ioc := range tr.iocs {
		c.node(ioc.node, "ioc%d", i)
		c.link(ioc.up, "ioc%d->leaf", i)
		c.link(ioc.down, "leaf->ioc%d", i)
	}
	c.all()
}
