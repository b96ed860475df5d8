package topology

import (
	"fmt"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// The builders name links with a reused byte buffer instead of
// fmt.Sprintf. These tests rebuild every link name with the format
// strings the builders used before and require byte equality, and
// that every link of the network was checked. Nodes carry no names;
// the tests check that each is numbered in build order instead.

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

func (c *nameCheck) node(id netsim.NodeID, want int) {
	c.t.Helper()
	if int(id) != want {
		c.t.Errorf("node %d, want %d", id, want)
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
	cfg.NPUs, cfg.FanIn = 36, []int{12, 3}
	net := netsim.New(sim.NewScheduler())
	f := NewFredFabric(net, cfg)
	c := newNameCheck(t, net)
	// Build order: the root, the L1s, the NPUs, the controllers.
	l1s := len(f.levels[0].up)
	c.node(net.Link(f.levels[0].up[0]).Dst, 0)
	for i := range f.levels[0].up {
		c.node(net.Link(f.levels[0].up[i]).Src, 1+i)
		c.link(f.levels[0].up[i], "l1.%d->l2", i)
		c.link(f.levels[0].down[i], "l2->l1.%d", i)
	}
	for i, npu := range f.npus {
		c.node(npu, 1+l1s+i)
		c.link(f.npuUp[i], "npu%d->l1", i)
		c.link(f.npuDown[i], "l1->npu%d", i)
	}
	for i, ioc := range f.iocs {
		c.node(ioc.node, 1+l1s+len(f.npus)+i)
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
	// Build order: the NPUs by index (row-major), then the controllers.
	for i, npu := range m.npus {
		c.node(npu, i)
	}
	for pair, id := range m.links {
		c.link(id, "mesh %d->%d", pair[0], pair[1])
	}
	for i, ioc := range m.iocs {
		c.node(ioc.node, len(m.npus)+i)
		c.link(ioc.toNPU, "ioc%d->npu", i)
		c.link(ioc.fromNPU, "npu->ioc%d", i)
	}
	c.all()
}

// TestFredTreeNamesMatchFormat extends the 2-level names to a 3-level
// fabric: every non-root switch carries its index, the root none.
func TestFredTreeNamesMatchFormat(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	tr := NewFredFabric(net, FredConfig{
		NPUs:        144,
		FanIn:       []int{12, 4, 3},
		LevelBW:     []float64{3e12, 12e12, 48e12},
		IOCs:        18,
		IOCBW:       128e9,
		LinkLatency: 20e-9,
	})
	c := newNameCheck(t, net)
	// Build order: the root, the L2s, the L1s, the NPUs, the
	// controllers.
	l2s, l1s := len(tr.levels[1].up), len(tr.levels[0].up)
	c.node(net.Link(tr.levels[1].up[0]).Dst, 0)
	for i := range tr.levels[1].up {
		c.node(net.Link(tr.levels[1].up[i]).Src, 1+i)
		c.link(tr.levels[1].up[i], "l2.%d->l3", i)
		c.link(tr.levels[1].down[i], "l3->l2.%d", i)
	}
	for i := range tr.levels[0].up {
		c.node(net.Link(tr.levels[0].up[i]).Src, 1+l2s+i)
		c.link(tr.levels[0].up[i], "l1.%d->l2.%d", i, i/4)
		c.link(tr.levels[0].down[i], "l2.%d->l1.%d", i/4, i)
	}
	for i, npu := range tr.npus {
		c.node(npu, 1+l2s+l1s+i)
		c.link(tr.npuUp[i], "npu%d->l1", i)
		c.link(tr.npuDown[i], "l1->npu%d", i)
	}
	for i, ioc := range tr.iocs {
		c.node(ioc.node, 1+l2s+l1s+len(tr.npus)+i)
		c.link(ioc.up, "ioc%d->l1.%d", i, ioc.l1)
		c.link(ioc.down, "l1.%d->ioc%d", ioc.l1, i)
	}
	c.all()
}
