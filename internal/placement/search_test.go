package placement

import (
	"testing"

	"github.com/wafernet/fred/internal/parallelism"
)

func TestCostPositiveOnMesh(t *testing.T) {
	s := parallelism.Strategy{MP: 2, DP: 4, PP: 2}
	m := newMesh44()
	c := Cost(m, s, MeshDefault(s))
	if c <= 0 {
		t.Fatalf("cost = %g", c)
	}
}

func TestCostSensitiveToPlacement(t *testing.T) {
	// The metric must distinguish placements: a deliberately scattered
	// assignment on the mesh costs more than the default.
	s := parallelism.Strategy{MP: 2, DP: 4, PP: 2}
	m := newMesh44()
	def := Cost(m, s, MeshDefault(s))
	// Reverse placement scatters MP pairs maximally.
	rev := make(Placement, s.Workers())
	for i := range rev {
		rev[i] = s.Workers() - 1 - i
	}
	_ = rev.Validate(m.NPUCount())
	if Cost(m, s, rev) == def {
		// Reversal may coincidentally tie; a stride placement must not.
		stride := make(Placement, s.Workers())
		for i := range stride {
			stride[i] = (i*5 + 3) % 16
		}
		if err := stride.Validate(m.NPUCount()); err != nil {
			t.Fatal(err)
		}
		if Cost(m, s, stride) <= def {
			t.Fatalf("cost cannot distinguish placements (default %g)", def)
		}
	}
}

func TestOptimizeImprovesOrMatchesDefault(t *testing.T) {
	s := parallelism.Strategy{MP: 2, DP: 4, PP: 2}
	m := newMesh44()
	def := Cost(m, s, MeshDefault(s))
	opt, cost := Optimize(m, s, 4, 12, 1)
	if err := opt.Validate(m.NPUCount()); err != nil {
		t.Fatal(err)
	}
	if cost > def {
		t.Fatalf("optimized cost %g exceeds default %g", cost, def)
	}
	if got := Cost(m, s, opt); got != cost {
		t.Fatalf("reported cost %g, recomputed %g", cost, got)
	}
}

func TestOptimizeNonAlignedStrategy(t *testing.T) {
	// The non-aligned Figure 6 strategy benefits most from search.
	s := parallelism.Strategy{MP: 5, DP: 3, PP: 1}
	m := newMesh44()
	def := Cost(m, s, MeshDefault(s))
	_, cost := Optimize(m, s, 4, 12, 7)
	if cost >= def {
		t.Fatalf("search found nothing better than default (%g)", def)
	}
}

func TestOptimizeDeterministicPerSeed(t *testing.T) {
	s := parallelism.Strategy{MP: 2, DP: 4, PP: 2}
	m := newMesh44()
	p1, c1 := Optimize(m, s, 4, 12, 3)
	p2, c2 := Optimize(m, s, 4, 12, 3)
	if c1 != c2 {
		t.Fatalf("costs differ: %g vs %g", c1, c2)
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("placements differ for same seed")
		}
	}
}
