package placement

import (
	"math/rand"
	"reflect"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// The goldens below were recorded from the full-recompute scorer, which
// compiled every group of the strategy for every candidate swap. The
// incremental evaluator must reproduce its costs, its accepted swaps
// and therefore its searched placements exactly.

func newMesh54() *topology.Mesh {
	return topology.NewMesh(netsim.New(sim.NewScheduler()), topology.DefaultMeshConfig())
}

// randomPlacement draws a seeded injection of s's workers into w's NPUs.
func randomPlacement(rng *rand.Rand, w topology.Wafer, s parallelism.Strategy) Placement {
	perm := rng.Perm(w.NPUCount())
	return append(Placement(nil), perm[:s.Workers()]...)
}

func TestCostGolden(t *testing.T) {
	cases := []struct {
		name string
		w    topology.Wafer
		s    parallelism.Strategy
		want []float64
	}{
		{"5x4/MP2-DP5-PP2", newMesh54(), parallelism.Strategy{MP: 2, DP: 5, PP: 2}, []float64{570, 486, 504, 535, 606, 553, 685, 511, 529}},
		{"5x4/MP5-DP3-PP1", newMesh54(), parallelism.Strategy{MP: 5, DP: 3, PP: 1}, []float64{44, 344, 295, 343, 336, 344, 347, 360, 309}},
		{"4x4/MP2-DP4-PP2", newMesh44(), parallelism.Strategy{MP: 2, DP: 4, PP: 2}, []float64{80, 375, 364, 405, 375, 363, 508, 278, 378}},
		{"4x4/MP1-DP4-PP4", newMesh44(), parallelism.Strategy{MP: 1, DP: 4, PP: 4}, []float64{36, 255, 203, 216, 209, 235, 295, 169, 215}},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(3))
		got := []float64{Cost(c.w, c.s, MeshDefault(c.s))}
		for i := 0; i < 8; i++ {
			got = append(got, Cost(c.w, c.s, randomPlacement(rng, c.w, c.s)))
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: costs %#v, want %#v", c.name, got, c.want)
		}
	}
}

// TestOptimizeGolden pins the searched placements and costs of the two
// PlacementSearchAblation strategies at its seed and effort.
func TestOptimizeGolden(t *testing.T) {
	cases := []struct {
		s    parallelism.Strategy
		want Placement
		cost float64
	}{
		{parallelism.Strategy{MP: 2, DP: 5, PP: 2},
			Placement{8, 2, 13, 14, 15, 16, 18, 19, 10, 11, 17, 12, 6, 1, 3, 4, 5, 0, 7, 9}, 253},
		{parallelism.Strategy{MP: 5, DP: 3, PP: 1},
			Placement{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}, 44},
	}
	for _, c := range cases {
		p, cost := Optimize(newMesh54(), c.s, 6, 24, 11)
		if !reflect.DeepEqual(p, c.want) || cost != c.cost {
			t.Errorf("%v: Optimize = %#v cost %v, want %#v cost %v", c.s, p, cost, c.want, c.cost)
		}
	}
}

// TestEvaluatorMatchesCost applies seeded random swap/revert sequences
// and checks after every step that the evaluator's running cost equals
// a full Cost evaluation of its current placement.
func TestEvaluatorMatchesCost(t *testing.T) {
	cases := []struct {
		name string
		w    topology.Wafer
		s    parallelism.Strategy
	}{
		{"5x4/MP2-DP5-PP2", newMesh54(), parallelism.Strategy{MP: 2, DP: 5, PP: 2}},
		{"5x4/MP5-DP3-PP1", newMesh54(), parallelism.Strategy{MP: 5, DP: 3, PP: 1}},
		{"5x4/MP1-DP2-PP10", newMesh54(), parallelism.Strategy{MP: 1, DP: 2, PP: 10}},
		{"4x4/MP2-DP4-PP2", newMesh44(), parallelism.Strategy{MP: 2, DP: 4, PP: 2}},
		{"4x4/MP4-DP1-PP3", newMesh44(), parallelism.Strategy{MP: 4, DP: 1, PP: 3}},
	}
	for _, c := range cases {
		rng := rand.New(rand.NewSource(5))
		p := randomPlacement(rng, c.w, c.s)
		ev := newEvaluator(c.w, c.s, p)
		n := c.s.Workers()
		for step := 0; step < 300; step++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == j {
				continue
			}
			got := ev.swap(i, j)
			if want := Cost(c.w, c.s, p); float64(got) != want {
				t.Fatalf("%s step %d: swap(%d,%d) cost %d, Cost %v", c.name, step, i, j, got, want)
			}
			if rng.Intn(2) == 0 {
				ev.revert()
				if want := Cost(c.w, c.s, p); float64(ev.cost) != want {
					t.Fatalf("%s step %d: revert cost %d, Cost %v", c.name, step, ev.cost, want)
				}
			}
		}
	}
}
