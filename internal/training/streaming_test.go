package training

import (
	"math"
	"testing"

	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/workload"
)

func TestStreamingT1TLoadBoundOnFred(t *testing.T) {
	// Transformer-1T on Fred-D is purely streaming-bound: the model is
	// loaded twice (fwd + bwd) at the aggregate 2.304 TB/s I/O rate;
	// gradient stores overlap the backward loads on the opposite link
	// direction. Total ≈ 2 × modelBytes / 2.304 TB/s.
	m := workload.Transformer1T()
	r := MustSimulate(Config{
		Wafer:               newFred(topology.FredD),
		Model:               m,
		Strategy:            parallelism.Strategy{MP: 1, DP: 20, PP: 1},
		MinibatchPerReplica: 16,
	})
	ideal := 2 * m.TotalParams() * workload.FP16Bytes / (18 * 128e9)
	if r.Total < ideal {
		t.Fatalf("total %g below the streaming bound %g", r.Total, ideal)
	}
	if r.Total > ideal*1.1 {
		t.Fatalf("total %g far above the streaming bound %g", r.Total, ideal)
	}
}

func TestStreamingT1TBaselineHotspotFactor(t *testing.T) {
	// The baseline's forward sweep streams at the 0.651 line-rate
	// factor of the (2N−1)P law; backward adds store contention. The
	// total must exceed the 0.651-rate bound.
	m := workload.Transformer1T()
	r := MustSimulate(Config{
		Wafer:               newMesh(),
		Model:               m,
		Strategy:            parallelism.Strategy{MP: 1, DP: 20, PP: 1},
		MinibatchPerReplica: 16,
	})
	atHotspotRate := 2 * m.TotalParams() * workload.FP16Bytes / (18 * 128e9 * 0.651)
	if r.Total < atHotspotRate*0.98 {
		t.Fatalf("baseline total %g below the hotspot-rate bound %g", r.Total, atHotspotRate)
	}
}

func TestStreamingGPT3WaveStructure(t *testing.T) {
	// GPT-3: 96 layers in 48 groups of PP=2 with 2 microbatches; each
	// group pass runs M+PP−1 = 3 waves, so per-pass compute carries the
	// 1.5× bubble factor versus perfect pipelining.
	m := workload.GPT3()
	r := MustSimulate(Config{
		Wafer:               newFred(topology.FredD),
		Model:               m,
		Strategy:            parallelism.Strategy{MP: 2, DP: 5, PP: 2},
		MinibatchPerReplica: 16,
	})
	// Ideal (bubble-free) critical-path compute: fwd+bwd = 3 × fwd
	// FLOPs, divided over the MP×PP workers of a perfect pipeline, at
	// the calibrated throughput, for the 16-sample replica batch.
	fwd := 0.0
	for _, l := range m.Layers {
		fwd += l.FwdFLOPs
	}
	ideal := 3 * fwd * 16 / (2 * 2) / (m.EffectiveTFLOPs * 1e12)
	withBubbles := ideal * 1.5
	if math.Abs(r.Breakdown.Compute-withBubbles)/withBubbles > 0.01 {
		t.Fatalf("compute %g, want %g (1.5x bubble factor)", r.Breakdown.Compute, withBubbles)
	}
}

func TestStreamingInputLoadOnlyWhenNotPrefetchable(t *testing.T) {
	gpt := MustSimulate(Config{
		Wafer:               newFred(topology.FredD),
		Model:               workload.GPT3(),
		Strategy:            parallelism.Strategy{MP: 2, DP: 5, PP: 2},
		MinibatchPerReplica: 16,
	})
	if gpt.Breakdown.InputLoad != 0 {
		t.Fatalf("GPT-3 input load exposed: %g (it is prefetchable)", gpt.Breakdown.InputLoad)
	}
	t1t := MustSimulate(Config{
		Wafer:               newFred(topology.FredD),
		Model:               workload.Transformer1T(),
		Strategy:            parallelism.Strategy{MP: 1, DP: 20, PP: 1},
		MinibatchPerReplica: 16,
	})
	if t1t.Breakdown.InputLoad <= 0 {
		t.Fatal("Transformer-1T input load not exposed")
	}
}

func TestStreamingCommStats(t *testing.T) {
	// GPT-3's MP traffic: 2 all-reduces per layer per pass, activation
	// × microbatch, ×3 for fwd+bwd (backward carries factor 2), over
	// all DP replicas.
	m := workload.GPT3()
	s := parallelism.Strategy{MP: 2, DP: 5, PP: 2}
	r := MustSimulate(Config{
		Wafer:               newFred(topology.FredD),
		Model:               m,
		Strategy:            s,
		MinibatchPerReplica: 16,
	})
	var mpPerSample float64
	for _, l := range m.Layers {
		mpPerSample += float64(l.MPAllReducesPerPass) * l.ActivationBytes
	}
	want := 3 * mpPerSample * 16 * float64(s.DP) // fwd 1× + bwd 2×
	got := r.Comm[ClassMP].Bytes
	if math.Abs(got-want)/want > 1e-9 {
		t.Fatalf("MP bytes %g, want %g", got, want)
	}
	if r.Comm[ClassPP].Ops == 0 {
		t.Fatal("no PP transfers recorded")
	}
}

func TestStreamingMicrobatchDefaults(t *testing.T) {
	// Section 7.3: GPT-3 splits into 2 microbatches (= PP);
	// Transformer-1T uses PP (=1).
	g := Config{Model: workload.GPT3(), Strategy: parallelism.Strategy{MP: 2, DP: 5, PP: 2}, MinibatchPerReplica: 16}
	if g.DefaultMicrobatches() != 2 {
		t.Fatalf("GPT-3 microbatches = %d", g.DefaultMicrobatches())
	}
	o := Config{Model: workload.Transformer1T(), Strategy: parallelism.Strategy{MP: 1, DP: 20, PP: 1}, MinibatchPerReplica: 16}
	if o.DefaultMicrobatches() != 1 {
		t.Fatalf("T-1T microbatches = %d", o.DefaultMicrobatches())
	}
}

func TestStreamingBreakdownSumsNearTotal(t *testing.T) {
	for _, m := range []*workload.Model{workload.GPT3(), workload.Transformer1T()} {
		r := MustSimulate(Config{
			Wafer:               newMesh(),
			Model:               m,
			Strategy:            parallelism.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP},
			MinibatchPerReplica: 16,
		})
		sum := r.Breakdown.Compute + r.Breakdown.TotalExposed()
		if sum < r.Total*0.9 || sum > r.Total*1.1 {
			t.Errorf("%s: breakdown sum %g vs total %g", m.Name, sum, r.Total)
		}
	}
}

// TestPreparedRoutesFollowStateEpoch: a prepared tree is reused while
// the fabric state holds and prepared again once a link changes.
func TestPreparedRoutesFollowStateEpoch(t *testing.T) {
	w := newMesh()
	net := w.Network()
	trees := newPreparedRoutes(net, w.IOCCount(), w.IOCLoadTree)
	first := trees.get(0)
	if trees.get(0) != first {
		t.Fatal("prepared route not reused within one fabric state")
	}
	if first.Latency() == 0 {
		t.Fatal("empty prepared load tree")
	}
	net.Link(w.IOCLoadTree(0)[0]).Degrade(0.5)
	if trees.get(0) == first {
		t.Fatal("prepared route survived a fabric-state change")
	}
}
