package topology

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// fredLinkTable renders every link of each Table 5 variant: ID, source
// and destination nodes, link name, bandwidth and latency.
func fredLinkTable() string {
	var b strings.Builder
	for _, v := range []FredVariant{FredA, FredB, FredC, FredD} {
		net := netsim.New(sim.NewScheduler())
		nodes := fredNodeLabels(NewFredVariant(net, v))
		fmt.Fprintf(&b, "# %s\n", v)
		for id := 0; id < net.NumLinks(); id++ {
			l := net.Link(netsim.LinkID(id))
			fmt.Fprintf(&b, "%d %s %s %s %v %v\n", l.ID, nodes[l.Src], nodes[l.Dst], l.Name, l.Bandwidth, l.Latency)
		}
	}
	return b.String()
}

// fredNodeLabels labels a 2-level fabric's nodes by their role, found
// from the fabric's own node and link tables: fred-l2 for the root,
// fred-l1.<i>, npu<i> and ioc<i>.
func fredNodeLabels(f *FredFabric) map[netsim.NodeID]string {
	net := f.Network()
	labels := map[netsim.NodeID]string{}
	for i, up := range f.levels[0].up {
		l := net.Link(up)
		labels[l.Src] = fmt.Sprintf("fred-l1.%d", i)
		labels[l.Dst] = "fred-l2"
	}
	for i, npu := range f.npus {
		labels[npu] = fmt.Sprintf("npu%d", i)
	}
	for i, ioc := range f.iocs {
		labels[ioc.node] = fmt.Sprintf("ioc%d", i)
	}
	return labels
}

// TestFredVariantLinkTableGolden pins the link table of every Table 5
// variant: link IDs follow the build order, so IDs, endpoints, names,
// bandwidths and latencies must all stay as recorded.
func TestFredVariantLinkTableGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fred-links.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := fredLinkTable(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("link table differs at line %d: got %q, want %q", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("link table has %d lines, want %d", len(gl), len(wl))
	}
}
