package meshrouter

import "testing"

// BenchmarkMeshRun runs PacketValidation's 3-stream shared-channel case:
// three 4096-flit messages from nodes 0, 1 and 2 converging on node 3.
func BenchmarkMeshRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := New(DefaultConfig())
		for _, src := range []int{0, 1, 2} {
			m.Inject(src, 3, 4096)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
}
