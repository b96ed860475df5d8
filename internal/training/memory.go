package training

import (
	"github.com/wafernet/fred/internal/waferscale"
	"github.com/wafernet/fred/internal/workload"
)

// adamBytesPerParam is the optimizer-state footprint of Adam with FP32
// master weights (4+4+4 bytes per parameter).
const adamBytesPerParam = 12.0

// MemoryUsage is the per-NPU memory accounting of one pipeline stage
// under a strategy (weight-stationary execution).
type MemoryUsage struct {
	WeightsGrads float64 // FP16 weights + FP16 gradients, MP-sharded
	Optimizer    float64 // Adam state, ZeRO-2-sharded along DP when enabled
	Activations  float64 // resident activations between forward and backward
}

// Total returns the stage's per-NPU bytes.
func (m MemoryUsage) Total() float64 { return m.WeightsGrads + m.Optimizer + m.Activations }

// FitsHBM reports whether the stage fits the NPU's 80 GB HBM.
func (m MemoryUsage) FitsHBM() bool { return m.Total() <= waferscale.HBMCapacityBytes }

// stageMemory computes per-NPU memory for the stage's layers at
// pipeline stage pp. Under GPipe every microbatch's activations stay
// resident until the flush; under 1F1B at most PP−pp microbatches are
// in flight (Narayanan et al.).
func stageMemory(cfg *Config, stage []workload.Layer, pp int) MemoryUsage {
	var params, act float64
	for _, l := range stage {
		params += l.Params
		act += l.ActMemoryBytes
	}
	mp := float64(cfg.Strategy.MP)
	residentSamples := float64(cfg.MinibatchPerReplica)
	if cfg.Schedule == Schedule1F1B {
		inflight := cfg.Strategy.PP - pp
		if inflight > cfg.Microbatches {
			inflight = cfg.Microbatches
		}
		residentSamples = float64(inflight) * float64(cfg.MinibatchPerReplica) / float64(cfg.Microbatches)
	}
	usage := MemoryUsage{
		WeightsGrads: params * 2 * workload.FP16Bytes / mp,
		Activations:  act * residentSamples / mp,
	}
	usage.Optimizer = adamBytesPerParam * params / mp
	if cfg.Model.ZeRO2 {
		usage.Optimizer /= float64(cfg.Strategy.DP)
	}
	return usage
}

// bwdFactorFor returns the backward-to-forward compute ratio of a
// stage: 2 normally, 3 with full activation recomputation (an extra
// forward pass during backward) when the stage's resident activations
// overflow HBM. With recomputation only per-boundary activations stay
// resident, which always fits at these scales.
func bwdFactorFor(cfg *Config, stage []workload.Layer, pp int) (float64, bool) {
	if stageMemory(cfg, stage, pp).FitsHBM() {
		return 2, false
	}
	return 3, true
}
