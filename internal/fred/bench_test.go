package fred

import (
	"math/rand"
	"testing"
)

// BenchmarkRoute routes seeded concurrent flow sets on Fred_3(12), the
// leaf switch MiddleStageAblation exercises, cycling through 64 sets.
// The coloring memo is warm after the first pass, so the benchmark
// measures the per-level bookkeeping Route does around the coloring.
func BenchmarkRoute(b *testing.B) {
	ic := NewInterconnect(3, 12)
	rng := rand.New(rand.NewSource(1))
	sets := make([][]Flow, 64)
	for i := range sets {
		sets[i] = randomFlowSet(rng, 12)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ic.Route(sets[i%len(sets)])
	}
}
