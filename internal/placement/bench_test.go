package placement

import (
	"testing"

	"github.com/wafernet/fred/internal/parallelism"
)

// BenchmarkOptimize runs the PlacementSearchAblation search for the
// aligned MP2-DP5-PP2 strategy on the baseline 5×4 mesh, at the
// study's effort and seed.
func BenchmarkOptimize(b *testing.B) {
	w := newMesh54()
	s := parallelism.Strategy{MP: 2, DP: 5, PP: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Optimize(w, s, 6, 24, 11)
	}
}
