// Package workload models the four evaluation workloads of Table 6 of
// the FRED paper — ResNet-152, Transformer-17B (Turing-NLG class),
// GPT-3 and Transformer-1T — at the granularity the training simulator
// needs: per-layer parameter counts, per-sample forward FLOPs and
// activation sizes, the Megatron-LM sharding rule (two all-reduces
// along MP per transformer layer per pass), ZeRO stage-2 along DP, and
// the execution mode (weight stationary vs weight streaming,
// Section 3.1).
//
// Compute-time calibration. The paper simulates an H100-class NPU
// ("FP16: 1,000 TFLOPS", Table 3) but does not publish the achieved
// utilization or its compute-time model, and only normalized times are
// reported. Every result in the paper is a ratio, so only the
// compute:communication balance matters. A single global calibration
// constant — DefaultEffectiveTFLOPs, applied identically to all four
// workloads — reproduces the paper's baseline compute vs
// exposed-communication splits; all fabric-vs-fabric and
// strategy-vs-strategy ratios are produced by the simulator, never
// calibrated.
package workload

import (
	"fmt"
	"strconv"
)

// FP16Bytes is the size of one FP16 element.
const FP16Bytes = 2.0

// DefaultEffectiveTFLOPs is the calibrated effective per-NPU compute
// throughput applied to every workload (see the package comment). The
// same constant reproduces the Figure 10 compute:communication balance
// of all four workloads, so every reported ratio is untouched by it.
const DefaultEffectiveTFLOPs = 5000.0

// ExecutionMode selects how the model's weights live on the wafer
// (Section 3.1).
type ExecutionMode int

// Execution modes.
const (
	// WeightStationary keeps the whole model resident on the wafer;
	// per-iteration I/O is limited to input samples.
	WeightStationary ExecutionMode = iota
	// WeightStreaming streams layer groups through the wafer: the
	// model is loaded twice per iteration (forward and backward) and
	// gradients stream out through the I/O controllers.
	WeightStreaming
)

func (m ExecutionMode) String() string {
	if m == WeightStreaming {
		return "weight-streaming"
	}
	return "weight-stationary"
}

// Layer is one schedulable unit of the model.
type Layer struct {
	Name string
	// Params is the number of parameters (elements).
	Params float64
	// FwdFLOPs is the forward-pass floating-point work for ONE sample.
	// Backward is modelled as 2× forward, the standard ratio.
	FwdFLOPs float64
	// ActivationBytes is the size of the layer's output activation for
	// ONE sample (FP16) — the tensor pipeline parallelism forwards and
	// Megatron MP all-reduces synchronise.
	ActivationBytes float64
	// ActMemoryBytes is the activation memory the layer keeps resident
	// per sample between forward and backward (all intermediate
	// tensors, ≈34·s·h for a transformer layer per Megatron's
	// accounting). When a strategy's resident activations overflow the
	// NPU HBM, training falls back to activation recomputation,
	// raising backward compute — the memory-pressure effect that makes
	// MP-heavy strategies the compute-efficient ones (Section 1).
	ActMemoryBytes float64
	// MPAllReducesPerPass is the number of MP all-reduces of
	// ActivationBytes this layer needs per pass (2 for Megatron
	// transformer layers: one after attention, one after the MLP;
	// 0 for layers that are not tensor-sharded).
	MPAllReducesPerPass int
}

// Model is a DNN training workload.
type Model struct {
	Name   string
	Layers []Layer
	// Mode is the execution model of Table 6.
	Mode ExecutionMode
	// DefaultStrategy is the Table 6 parallelization strategy (MP, DP,
	// PP sizes).
	DefaultMP, DefaultDP, DefaultPP int
	// SampleBytes is the per-sample input size streamed from the I/O
	// controllers at iteration start.
	SampleBytes float64
	// EffectiveTFLOPs is the calibrated effective per-NPU compute
	// throughput (see the package comment), in TFLOP/s.
	EffectiveTFLOPs float64
	// ZeRO2 marks ZeRO optimizer stage 2 along DP (weight-stationary
	// workloads, Section 7.3); it shards gradients and optimizer state
	// (memory accounting) while gradient synchronisation remains an
	// all-reduce-class volume (reduce-scatter + all-gather).
	ZeRO2 bool
	// InputPrefetchable is false only when the I/O controllers are
	// busy all iteration (Transformer-1T): the input minibatch load
	// cannot be hidden (Section 8.2).
	InputPrefetchable bool
}

// TotalParams returns the model's parameter count.
func (m *Model) TotalParams() float64 {
	total := 0.0
	for _, l := range m.Layers {
		total += l.Params
	}
	return total
}

// TotalFwdFLOPs returns the forward FLOPs for one sample.
func (m *Model) TotalFwdFLOPs() float64 {
	total := 0.0
	for _, l := range m.Layers {
		total += l.FwdFLOPs
	}
	return total
}

// ModelBytes returns the FP16 size of the parameters.
func (m *Model) ModelBytes() float64 { return m.TotalParams() * FP16Bytes }

// GradientBytes returns the FP16 size of the gradients (equal to the
// parameter bytes; Section 7.3: FP16 gradient precision).
func (m *Model) GradientBytes() float64 { return m.ModelBytes() }

// String identifies the model.
func (m *Model) String() string {
	return fmt.Sprintf("%s (%.3gB params, %s)", m.Name, m.TotalParams()/1e9, m.Mode)
}

// TransformerConfig sizes a GPT-style decoder stack.
type TransformerConfig struct {
	Name      string
	NumLayers int
	Hidden    float64
	SeqLen    float64
}

// transformerLayer builds one Megatron-sharded decoder layer:
// parameters 12·h² (attention 4h², MLP 8h²), forward FLOPs per sample
// 24·s·h² for the GEMMs plus 4·s²·h for attention score/value
// products, output activation s·h FP16 elements, and two MP
// all-reduces per pass (Shoeybi et al., Section 7.3).
func transformerLayer(c TransformerConfig, i int) Layer {
	h, s := c.Hidden, c.SeqLen
	return Layer{
		Name:                c.Name + ".layer" + strconv.Itoa(i),
		Params:              12 * h * h,
		FwdFLOPs:            s * (24*h*h + 4*s*h),
		ActivationBytes:     s * h * FP16Bytes,
		ActMemoryBytes:      34 * s * h,
		MPAllReducesPerPass: 2,
	}
}

// Transformer builds a decoder-only transformer workload.
func Transformer(c TransformerConfig) []Layer {
	layers := make([]Layer, c.NumLayers)
	for i := range layers {
		layers[i] = transformerLayer(c, i)
	}
	return layers
}

// ResNet152 is the 60.2M-parameter convolutional workload of Table 6:
// pure data parallelism, weight stationary, ZeRO-2. The training
// simulator only consumes total parameters, per-sample FLOPs and a
// layer decomposition for gradient-bucket overlap, so the 50 residual
// blocks carry uniform shares of the published totals (60.2M params,
// 11.3 GFLOPs forward per 224×224 sample).
func ResNet152() *Model {
	const (
		blocks   = 50
		params   = 60.2e6
		fwdFLOPs = 11.3e9
		imgBytes = 224 * 224 * 3 * FP16Bytes
		actBytes = 56 * 56 * 256 * FP16Bytes / 4 // representative block output
	)
	layers := make([]Layer, blocks)
	for i := range layers {
		layers[i] = Layer{
			Name:            fmt.Sprintf("resnet152.block%d", i),
			Params:          params / blocks,
			FwdFLOPs:        fwdFLOPs / blocks,
			ActivationBytes: actBytes,
			ActMemoryBytes:  4e6, // ≈200 MB resident activations per sample
		}
	}
	return &Model{
		Name:              "ResNet-152",
		Layers:            layers,
		Mode:              WeightStationary,
		DefaultMP:         1,
		DefaultDP:         20,
		DefaultPP:         1,
		SampleBytes:       imgBytes,
		EffectiveTFLOPs:   DefaultEffectiveTFLOPs,
		ZeRO2:             true,
		InputPrefetchable: true,
	}
}

// Transformer17B is the 17-billion-parameter Turing-NLG-class model:
// 78 layers, hidden 4256, sequence 1024; weight stationary with ZeRO-2
// and the Table 6 strategy MP(3)-DP(3)-PP(2).
func Transformer17B() *Model {
	cfg := TransformerConfig{Name: "t17b", NumLayers: 78, Hidden: 4256, SeqLen: 1024}
	return &Model{
		Name:              "Transformer-17B",
		Layers:            Transformer(cfg),
		Mode:              WeightStationary,
		DefaultMP:         3,
		DefaultDP:         3,
		DefaultPP:         2,
		SampleBytes:       cfg.SeqLen * 4,
		EffectiveTFLOPs:   DefaultEffectiveTFLOPs,
		ZeRO2:             true,
		InputPrefetchable: true,
	}
}

// GPT3 is the 175-billion-parameter model: 96 layers, hidden 12288,
// sequence 2048; weight streaming with MP(2)-DP(5)-PP(2).
func GPT3() *Model {
	cfg := TransformerConfig{Name: "gpt3", NumLayers: 96, Hidden: 12288, SeqLen: 2048}
	return &Model{
		Name:              "GPT-3",
		Layers:            Transformer(cfg),
		Mode:              WeightStreaming,
		DefaultMP:         2,
		DefaultDP:         5,
		DefaultPP:         2,
		SampleBytes:       cfg.SeqLen * 4,
		EffectiveTFLOPs:   DefaultEffectiveTFLOPs,
		ZeRO2:             false,
		InputPrefetchable: true,
	}
}

// MoEConfig sizes a Switch-Transformer-style mixture-of-experts stack:
// every layer's FFN is replicated into Experts experts, of which each
// token activates one, so parameters scale with Experts while per-token
// FLOPs stay at the dense layer's cost.
type MoEConfig struct {
	Name      string
	NumLayers int
	Hidden    float64
	SeqLen    float64
	Experts   int
}

// MoETransformer builds a mixture-of-experts decoder stack: per layer,
// attention holds 4h² parameters and each of the E experts 8h², while
// forward FLOPs match a dense layer (top-1 routing).
func MoETransformer(c MoEConfig) []Layer {
	h, s := c.Hidden, c.SeqLen
	layers := make([]Layer, c.NumLayers)
	for i := range layers {
		layers[i] = Layer{
			Name:                c.Name + ".layer" + strconv.Itoa(i),
			Params:              (4 + 8*float64(c.Experts)) * h * h,
			FwdFLOPs:            s * (24*h*h + 4*s*h),
			ActivationBytes:     s * h * FP16Bytes,
			ActMemoryBytes:      34 * s * h,
			MPAllReducesPerPass: 2,
		}
	}
	return layers
}

// Transformer1T is the trillion-parameter model. The paper cites
// Google's Switch Transformer, a mixture-of-experts architecture: one
// trillion parameters to stream but dense-layer compute per token —
// which is precisely why the paper finds it I/O-bound ("the NPUs can
// work with the line-rate of the weight being streamed", Section 8.2).
// We model 34 MoE layers of hidden 4096 with 220 experts (≈1.0T
// parameters); weight streaming, pure DP(20).
func Transformer1T() *Model {
	cfg := MoEConfig{Name: "t1t", NumLayers: 34, Hidden: 4096, SeqLen: 2048, Experts: 220}
	return &Model{
		Name:              "Transformer-1T",
		Layers:            MoETransformer(cfg),
		Mode:              WeightStreaming,
		DefaultMP:         1,
		DefaultDP:         20,
		DefaultPP:         1,
		SampleBytes:       cfg.SeqLen * 4,
		EffectiveTFLOPs:   DefaultEffectiveTFLOPs,
		ZeRO2:             false,
		InputPrefetchable: false,
	}
}

// Models returns the four Table 6 workloads in paper order.
func Models() []*Model {
	return []*Model{ResNet152(), Transformer17B(), GPT3(), Transformer1T()}
}
