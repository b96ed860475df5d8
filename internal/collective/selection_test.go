package collective

import (
	"slices"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// TestCommAlgorithmSelection pins the algorithm Comm selects on each
// fabric kind (Section 7.2): every Comm result must carry the name and
// links of the algorithm function called directly. The degraded
// all-reduce runs after one failed link, the up port of NPU 3 on the
// FRED fabrics and the 3→2 mesh link (the first hop of Route(3, 0)).
func TestCommAlgorithmSelection(t *testing.T) {
	const bytes = 64e6
	group := []int{0, 1, 2, 3, 4, 5, 6, 7}
	fred := func(v topology.FredVariant) topology.Wafer {
		return topology.NewFredVariant(netsim.New(sim.NewScheduler()), v)
	}
	tree := func(inNetwork bool) topology.Wafer {
		_, tr := newTree(inNetwork)
		return tr
	}
	// Each want returns the direct all-reduce, reduce-scatter,
	// all-gather and multicast (from group[0]) on the healthy fabric.
	fredEndpoint := func(w topology.Wafer) []Schedule {
		f := w.(*topology.FredFabric)
		return []Schedule{FredEndpointAllReduce(f, group, bytes), RingReduceScatter(f, group, bytes, true),
			RingAllGather(f, group, bytes, true), unicasts(f, 0, group, bytes)}
	}
	fredInNetwork := func(w topology.Wafer) []Schedule {
		f := w.(*topology.FredFabric)
		return []Schedule{FredInNetworkAllReduce(f, group, bytes), FredInNetworkReduceScatter(f, group, bytes),
			FredInNetworkAllGather(f, group, bytes), MulticastTree(f, 0, group, bytes)}
	}
	for _, tc := range []struct {
		name string
		w    topology.Wafer
		want func(w topology.Wafer) []Schedule
		// degraded compiles the all-reduce over the alive members.
		degraded func(w topology.Wafer, alive []int) Schedule
	}{
		{"mesh", topology.NewMesh(netsim.New(sim.NewScheduler()), topology.DefaultMeshConfig()),
			func(w topology.Wafer) []Schedule {
				m := w.(*topology.Mesh)
				return []Schedule{MeshAllReduce(m, group, bytes), MeshReduceScatter(m, group, bytes),
					MeshAllGather(m, group, bytes), MulticastTree(m, 0, group, bytes)}
			},
			func(w topology.Wafer, alive []int) Schedule {
				m := w.(*topology.Mesh)
				return RingAllReduce(detourRouter{m}, SnakeOrder(m, alive), bytes, true)
			}},
		{"Fred-A", fred(topology.FredA), fredEndpoint, func(w topology.Wafer, alive []int) Schedule {
			return FredEndpointAllReduce(w.(*topology.FredFabric), alive, bytes)
		}},
		{"Fred-B", fred(topology.FredB), fredInNetwork, func(w topology.Wafer, alive []int) Schedule {
			return FredInNetworkAllReduce(w.(*topology.FredFabric), alive, bytes)
		}},
		{"Fred-C", fred(topology.FredC), fredEndpoint, func(w topology.Wafer, alive []int) Schedule {
			return FredEndpointAllReduce(w.(*topology.FredFabric), alive, bytes)
		}},
		{"Fred-D", fred(topology.FredD), fredInNetwork, func(w topology.Wafer, alive []int) Schedule {
			return FredInNetworkAllReduce(w.(*topology.FredFabric), alive, bytes)
		}},
		{"3-level in-network", tree(true), fredInNetwork, func(w topology.Wafer, alive []int) Schedule {
			return FredInNetworkAllReduce(w.(*topology.FredFabric), alive, bytes)
		}},
		{"3-level endpoint", tree(false), fredEndpoint, func(w topology.Wafer, alive []int) Schedule {
			return FredEndpointAllReduce(w.(*topology.FredFabric), alive, bytes)
		}},
	} {
		c := NewComm(tc.w)
		got := []Schedule{c.AllReduce(group, bytes), c.ReduceScatter(group, bytes),
			c.AllGather(group, bytes), c.Multicast(0, group, bytes)}
		for i, want := range tc.want(tc.w) {
			sameSchedule(t, tc.name, got[i], want)
		}

		tc.w.Network().Link(tc.w.Route(3, 0)[0]).Fail()
		alive := AliveGroup(tc.w, group)
		if tc.name != "mesh" && slices.Contains(alive, 3) {
			t.Fatalf("%s: NPU 3 survived the loss of its port", tc.name)
		}
		sameSchedule(t, tc.name, c.AllReduceDegraded(group, bytes), tc.degraded(tc.w, alive))
	}
}

// sameSchedule fails unless got has want's name and, phase by phase
// and transfer by transfer, its links and bytes.
func sameSchedule(t *testing.T, fabric string, got, want Schedule) {
	t.Helper()
	if got.Err != nil || got.Name != want.Name || len(got.Phases) != len(want.Phases) {
		t.Fatalf("%s: Comm compiled %q (%d phases, err %v), want %q (%d phases)",
			fabric, got.Name, len(got.Phases), got.Err, want.Name, len(want.Phases))
	}
	for i, ph := range got.Phases {
		if len(ph) != len(want.Phases[i]) {
			t.Fatalf("%s %s: phase %d has %d transfers, want %d", fabric, got.Name, i, len(ph), len(want.Phases[i]))
		}
		for j, tr := range ph {
			if w := want.Phases[i][j]; !slices.Equal(tr.Links, w.Links) || tr.Bytes != w.Bytes {
				t.Fatalf("%s %s: phase %d transfer %d differs from the direct call", fabric, got.Name, i, j)
			}
		}
	}
}
