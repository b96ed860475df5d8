package workload

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestResNet152Totals(t *testing.T) {
	m := ResNet152()
	if got := m.TotalParams(); math.Abs(got-60.2e6) > 1e3 {
		t.Fatalf("ResNet-152 params = %g, want 60.2M", got)
	}
	if got := totalFwdFLOPs(m); math.Abs(got-11.3e9) > 1e3 {
		t.Fatalf("ResNet-152 fwd FLOPs = %g, want 11.3G", got)
	}
	if m.Mode != WeightStationary || m.DefaultDP != 20 || m.DefaultMP != 1 {
		t.Fatalf("ResNet-152 Table 6 config wrong: %+v", m)
	}
	if !m.ZeRO2 {
		t.Fatal("ResNet-152 must use ZeRO-2 (Section 7.3)")
	}
}

func TestTransformer17BParamCount(t *testing.T) {
	m := Transformer17B()
	got := m.TotalParams()
	// 12·78·4256² ≈ 16.96B — the "17B" of Turing-NLG.
	if got < 16e9 || got > 18e9 {
		t.Fatalf("Transformer-17B params = %g, want ≈ 17B", got)
	}
	if m.Mode != WeightStationary {
		t.Fatal("Transformer-17B is weight stationary (Table 6)")
	}
	if m.DefaultMP != 3 || m.DefaultDP != 3 || m.DefaultPP != 2 {
		t.Fatalf("Transformer-17B strategy = MP(%d)-DP(%d)-PP(%d), want MP(3)-DP(3)-PP(2)",
			m.DefaultMP, m.DefaultDP, m.DefaultPP)
	}
}

func TestGPT3ParamCount(t *testing.T) {
	m := GPT3()
	got := m.TotalParams()
	if got < 170e9 || got > 180e9 {
		t.Fatalf("GPT-3 params = %g, want ≈ 175B", got)
	}
	if m.Mode != WeightStreaming {
		t.Fatal("GPT-3 is weight streaming (Table 6)")
	}
	if m.DefaultMP != 2 || m.DefaultDP != 5 || m.DefaultPP != 2 {
		t.Fatalf("GPT-3 strategy wrong: MP(%d)-DP(%d)-PP(%d)", m.DefaultMP, m.DefaultDP, m.DefaultPP)
	}
}

func TestTransformer1TParamCount(t *testing.T) {
	m := Transformer1T()
	got := m.TotalParams()
	if got < 0.95e12 || got > 1.05e12 {
		t.Fatalf("Transformer-1T params = %g, want ≈ 1T", got)
	}
	if m.InputPrefetchable {
		t.Fatal("Transformer-1T input load cannot be prefetched (Section 8.2)")
	}
	if m.DefaultDP != 20 || m.DefaultMP != 1 || m.DefaultPP != 1 {
		t.Fatalf("Transformer-1T strategy wrong: %+v", m)
	}
}

func TestTransformerLayerShape(t *testing.T) {
	cfg := TransformerConfig{Name: "x", NumLayers: 2, Hidden: 1024, SeqLen: 512}
	layers := Transformer(cfg)
	if len(layers) != 2 {
		t.Fatalf("layers = %d", len(layers))
	}
	l := layers[0]
	if l.Params != 12*1024*1024 {
		t.Fatalf("layer params = %g, want 12h²", l.Params)
	}
	if l.ActivationBytes != 512*1024*2 {
		t.Fatalf("activation = %g, want s·h·2", l.ActivationBytes)
	}
	if l.MPAllReducesPerPass != 2 {
		t.Fatalf("MP all-reduces per pass = %d, want 2 (Megatron)", l.MPAllReducesPerPass)
	}
	wantFLOPs := 512 * (24*1024*1024 + 4*512*1024)
	if l.FwdFLOPs != float64(wantFLOPs) {
		t.Fatalf("fwd FLOPs = %g, want %d", l.FwdFLOPs, wantFLOPs)
	}
}

// totalFwdFLOPs returns the model's forward FLOPs for one sample.
func totalFwdFLOPs(m *Model) float64 {
	total := 0.0
	for _, l := range m.Layers {
		total += l.FwdFLOPs
	}
	return total
}

// modelBytes returns the FP16 size of the model's parameters.
func modelBytes(m *Model) float64 { return m.TotalParams() * FP16Bytes }

// TestGradientBytesFP16: FP16 gradients (Section 7.3) take two bytes a
// parameter, so ResNet-152's DP all-reduce moves 120.4 MB.
func TestGradientBytesFP16(t *testing.T) {
	if got := modelBytes(ResNet152()); math.Abs(got-120.4e6) > 2e3 {
		t.Fatalf("gradient bytes = %g, want 120.4 MB", got)
	}
}

func TestModelsOrder(t *testing.T) {
	ms := Models()
	want := []string{"ResNet-152", "Transformer-17B", "GPT-3", "Transformer-1T"}
	if len(ms) != len(want) {
		t.Fatalf("Models() returned %d entries", len(ms))
	}
	for i, m := range ms {
		if m.Name != want[i] {
			t.Fatalf("Models()[%d] = %s, want %s", i, m.Name, want[i])
		}
		if m.EffectiveTFLOPs <= 0 {
			t.Fatalf("%s has no calibrated throughput", m.Name)
		}
		if len(m.Layers) == 0 {
			t.Fatalf("%s has no layers", m.Name)
		}
	}
}

func TestStreamingModelsFitBudget(t *testing.T) {
	// Streaming workloads must exceed on-wafer memory (20 × 80 GB),
	// stationary ones must fit (the premise of Section 3.1).
	const waferHBM = 20 * 80e9
	for _, m := range Models() {
		// Stationary: params + gradients + optimizer (Adam: 12 bytes/
		// param with ZeRO-2 sharding it across DP — be generous and
		// check raw FP16 weights only).
		if m.Mode == WeightStationary && modelBytes(m) > waferHBM {
			t.Errorf("%s marked stationary but weights (%g B) exceed wafer HBM", m.Name, modelBytes(m))
		}
		if m.Mode == WeightStreaming && modelBytes(m) < waferHBM/8 {
			t.Errorf("%s marked streaming but easily fits", m.Name)
		}
	}
}

func TestMoETransformerShape(t *testing.T) {
	cfg := MoEConfig{Name: "x", NumLayers: 2, Hidden: 512, SeqLen: 128, Experts: 10}
	layers := MoETransformer(cfg)
	if len(layers) != 2 {
		t.Fatalf("layers = %d", len(layers))
	}
	l := layers[0]
	if l.Params != (4+80)*512*512 {
		t.Fatalf("MoE params = %g, want (4+8E)h²", l.Params)
	}
	// FLOPs match the dense layer (top-1 routing).
	dense := transformerLayer(TransformerConfig{Hidden: 512, SeqLen: 128}, 0)
	if l.FwdFLOPs != dense.FwdFLOPs {
		t.Fatalf("MoE FLOPs %g != dense %g", l.FwdFLOPs, dense.FwdFLOPs)
	}
	if l.ActMemoryBytes != 34*128*512 {
		t.Fatalf("ActMemory = %g", l.ActMemoryBytes)
	}
}

func TestTransformer1TIsStreamingBound(t *testing.T) {
	// The MoE modelling makes per-byte compute tiny: loading a byte at
	// 2.3 TB/s must cost more wall time than computing its share of
	// FLOPs, which is what makes the workload I/O-bound (Section 8.2).
	m := Transformer1T()
	flopsPerParamByte := totalFwdFLOPs(m) * 3 * 320 / 20 / modelBytes(m) // per NPU, batch 320
	computePerByte := flopsPerParamByte / (m.EffectiveTFLOPs * 1e12)
	streamPerByte := 2.0 / (18 * 128e9) // two loads per byte at full I/O
	if computePerByte >= streamPerByte {
		t.Fatalf("compute/byte %g ≥ stream/byte %g: not I/O-bound", computePerByte, streamPerByte)
	}
}

func TestActivationMemoryScale(t *testing.T) {
	// Megatron's ≈34·s·h per layer per sample for Transformer-17B.
	m := Transformer17B()
	l := m.Layers[0]
	if l.ActMemoryBytes != 34*1024*4256 {
		t.Fatalf("ActMemory = %g", l.ActMemoryBytes)
	}
	// ResNet's total resident activations ≈ 200 MB per sample.
	r := ResNet152()
	total := 0.0
	for _, bl := range r.Layers {
		total += bl.ActMemoryBytes
	}
	if total != 200e6 {
		t.Fatalf("ResNet activations = %g, want 200 MB", total)
	}
}

// TestLayerNamesMatchFormat: transformer and MoE layer names are built
// by concatenation, not fmt.Sprintf; they must equal the old
// "%s.layer%d" rendering byte for byte.
func TestLayerNamesMatchFormat(t *testing.T) {
	for _, m := range []*Model{Transformer17B(), GPT3(), Transformer1T()} {
		prefix := m.Layers[0].Name[:strings.Index(m.Layers[0].Name, ".layer")]
		for i, l := range m.Layers {
			if want := fmt.Sprintf("%s.layer%d", prefix, i); l.Name != want {
				t.Fatalf("%s: layer %d named %q, want %q", m.Name, i, l.Name, want)
			}
		}
	}
}
