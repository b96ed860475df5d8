// Package training is the ASTRA-SIM-style distributed-training
// simulator of Section 7 of the FRED paper: it executes one training
// iteration of a workload under a 3D parallelization strategy on a
// wafer topology, producing the end-to-end time decomposed into
// compute and per-class exposed communication (input load, MP, DP, PP,
// weight streaming) — the quantities plotted in Figures 2, 10 and 11.
//
// Model granularity and documented simplifications:
//
//   - Workers of one MP group advance in lockstep (they compute
//     identical shards), so the simulation unit is a stage replica
//     (dp, pp) whose MP collectives involve its placed NPUs.
//   - MP all-reduces are aggregated per (stage, microbatch, pass):
//     they block the stage either way, so the totals are preserved.
//   - DP gradient synchronisation is bucketed: the backward pass of
//     the last microbatch issues one DP op per gradient bucket so DP
//     overlaps backward compute, as in PyTorch DDP / ASTRA-SIM.
//   - FRED arbitrates the fabric between communication classes with
//     priority MP > PP > DP and preemption (Section 5.4); the mesh is
//     packet-switched and all classes share links via max-min fairness.
//   - Weight streaming executes layer groups of PP consecutive layers
//     with a double-buffered loader and background gradient stream-out
//     reduced along DP (Section 3.1.2, Section 7.3); the group-internal
//     pipeline is simulated wave by wave (M+PP−1 waves).
//
// Both execution modes build an iteration graph (graph.go) of compute,
// collective and I/O nodes with dependency edges, from the model, the
// strategy and the placement alone; one executor (executor.go) replays
// it on the wafer through the fabric's arbiter, keeping each timeline's
// account — a stage replica's, or the streaming chain's — for the
// report's breakdown, per-NPU attribution and critical path.
package training

import (
	"fmt"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/placement"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/workload"
)

// Class is a communication class for exposure accounting and FRED's
// priority arbitration.
type Class int

// Communication classes; MP, PP, DP are in descending FRED priority
// (Section 5.4).
const (
	ClassMP Class = iota
	ClassPP
	ClassDP
	// ClassLoad is the initial input-minibatch load.
	ClassLoad
	// ClassStream is weight streaming (loads and gradient stores).
	ClassStream
	numClasses
)

func (c Class) String() string {
	switch c {
	case ClassMP:
		return "MP"
	case ClassPP:
		return "PP"
	case ClassDP:
		return "DP"
	case ClassLoad:
		return "input-load"
	case ClassStream:
		return "weight-stream"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Config describes one training-iteration simulation.
type Config struct {
	// Wafer is the fabric under test. Its netsim network must be
	// otherwise idle.
	Wafer topology.Wafer
	// Model is the workload.
	Model *workload.Model
	// Strategy is the 3D parallelization strategy; Workers() must not
	// exceed the wafer's NPU count.
	Strategy parallelism.Strategy
	// Placement maps ranks to NPUs; nil selects the topology default
	// (MP-major row order on the mesh — "the baseline placement favors
	// MP" — and FRED's consecutive policy, which coincide).
	Placement placement.Placement
	// MinibatchPerReplica is the sample count per DP replica (the
	// paper uses 16 for Figures 9-10 and 40 for Figures 2 and 11).
	MinibatchPerReplica int
	// Microbatches divides the per-replica minibatch for pipelining;
	// 0 selects the paper's per-strategy defaults (footnote 6).
	Microbatches int
	// GradBuckets sets DP overlap granularity. The default (1) starts
	// DP synchronisation after the backward pass, exposing the full DP
	// time as the paper's breakdowns do; higher values bucket the
	// gradients so DP overlaps the backward tail (a DP-overlap
	// ablation, cf. PyTorch DDP).
	GradBuckets int
	// Schedule selects the pipeline schedule: GPipe (the paper's
	// choice, default) or 1F1B, which caps resident activations at
	// PP−stage microbatches instead of all of them — a schedule
	// ablation interacting with the HBM/recompute model.
	Schedule PipelineSchedule
}

// Minibatch returns the global minibatch size (DP × per-replica).
func (c *Config) Minibatch() int { return c.MinibatchPerReplica * c.Strategy.DP }

// DefaultMicrobatches returns the paper's microbatch counts: footnote
// 6 for weight-stationary pipelines (1, 10, 20, 20, 20, 40 for PP of
// 1, 2, 4, 5, 10, 20 with the DP×40 minibatch; proportionally fewer
// for DP×16, min 1 per PP stage), and PP microbatches for streaming
// (GPT-3 splits into two, Transformer-1T uses PP).
func (c *Config) DefaultMicrobatches() int {
	pp := c.Strategy.PP
	if c.Model.Mode == workload.WeightStreaming {
		if pp < 1 {
			return 1
		}
		return pp
	}
	if pp == 1 {
		return 1
	}
	table := map[int]int{2: 10, 4: 20, 5: 20, 10: 20, 20: 40}
	m, ok := table[pp]
	if !ok {
		m = 2 * pp
	}
	// Footnote 6 assumes 40 samples per replica; scale down for
	// smaller minibatches but keep at least one microbatch per stage
	// wave and at least one sample per microbatch.
	if c.MinibatchPerReplica < 40 {
		m = m * c.MinibatchPerReplica / 40
	}
	if m < pp {
		m = pp
	}
	if m > c.MinibatchPerReplica {
		m = c.MinibatchPerReplica
	}
	return m
}

// PipelineSchedule selects the microbatch schedule of the
// weight-stationary pipeline.
type PipelineSchedule int

// Pipeline schedules.
const (
	// ScheduleGPipe is the flush schedule of Huang et al. (default).
	ScheduleGPipe PipelineSchedule = iota
	// Schedule1F1B is PipeDream-flush: one-forward-one-backward.
	Schedule1F1B
)

func (p PipelineSchedule) String() string {
	if p == Schedule1F1B {
		return "1F1B"
	}
	return "GPipe"
}

// Breakdown decomposes an iteration along the critical path.
type Breakdown struct {
	Compute   float64
	InputLoad float64
	MP        float64
	DP        float64
	PP        float64
	Stream    float64
}

// TotalExposed sums the exposed communication components.
func (b Breakdown) TotalExposed() float64 {
	return b.InputLoad + b.MP + b.DP + b.PP + b.Stream
}

// Report is the result of one simulated training iteration.
type Report struct {
	Config    *Config
	Total     float64 // end-to-end iteration time, seconds
	Breakdown Breakdown
	// PerSample is Total divided by the global minibatch — the
	// normalised metric of Figures 2 and 11 (Section 7.4).
	PerSample float64
	// ActivationRecompute reports whether any pipeline stage overflowed
	// HBM and fell back to activation recomputation (backward = 3×
	// forward instead of 2×).
	ActivationRecompute bool
	// Comm profiles the iteration's communication per class: operation
	// counts, injected bytes and busy time.
	Comm CommStats
	// NPUs attributes the iteration time per placed NPU (ascending by
	// NPU id): compute, per-class exposed communication, and idle,
	// summing exactly to Total on every row.
	NPUs []NPUTime
	// CritPath is the causal critical-path analysis of the iteration —
	// the exact compute / comm-serialized / comm-contention /
	// fault-recovery / idle decomposition plus the dominant path
	// segments. Nil unless the wafer's network has a critpath recorder
	// attached (netsim.SetCritPath) before Simulate.
	CritPath *critpath.Iteration
}

func (r *Report) String() string {
	b := r.Breakdown
	return fmt.Sprintf("total %.4gs = compute %.4g + load %.4g + MP %.4g + DP %.4g + PP %.4g + stream %.4g",
		r.Total, b.Compute, b.InputLoad, b.MP, b.DP, b.PP, b.Stream)
}

// Simulate runs one training iteration and returns its report.
func Simulate(cfg Config) (*Report, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	return newExecutor(&cfg, buildGraph(&cfg)).run()
}

// normalize validates the config and fills in its defaults.
func (cfg *Config) normalize() error {
	if cfg.Model == nil {
		return fmt.Errorf("training: nil model")
	}
	if !cfg.Strategy.Valid() {
		return fmt.Errorf("training: invalid strategy %v", cfg.Strategy)
	}
	if cfg.Strategy.Workers() > cfg.Wafer.NPUCount() {
		return fmt.Errorf("training: strategy %v needs %d workers, wafer has %d NPUs",
			cfg.Strategy, cfg.Strategy.Workers(), cfg.Wafer.NPUCount())
	}
	if cfg.MinibatchPerReplica <= 0 {
		cfg.MinibatchPerReplica = 16
	}
	if cfg.Microbatches <= 0 {
		cfg.Microbatches = cfg.DefaultMicrobatches()
	}
	if cfg.Microbatches > cfg.MinibatchPerReplica {
		cfg.Microbatches = cfg.MinibatchPerReplica
	}
	if cfg.GradBuckets <= 0 {
		cfg.GradBuckets = 1
	}
	if cfg.Placement == nil {
		cfg.Placement = placement.Consecutive(cfg.Strategy)
	}
	if err := cfg.Placement.Validate(cfg.Wafer.NPUCount()); err != nil {
		return err
	}
	if cfg.Strategy.PP > len(cfg.Model.Layers) {
		return fmt.Errorf("training: PP(%d) exceeds %d layers", cfg.Strategy.PP, len(cfg.Model.Layers))
	}
	return nil
}

// stageLayers splits the model's layers into PP contiguous stages of
// near-equal FLOPs.
func stageLayers(layers []workload.Layer, pp int) [][]workload.Layer {
	if pp <= 1 {
		return [][]workload.Layer{layers}
	}
	total := 0.0
	for _, l := range layers {
		total += l.FwdFLOPs
	}
	target := total / float64(pp)
	out := make([][]workload.Layer, 0, pp)
	start, acc := 0, 0.0
	for i := range layers {
		acc += layers[i].FwdFLOPs
		// Leave at least one layer for each remaining stage.
		remainingStages := pp - len(out) - 1
		if (acc >= target && len(layers)-i-1 >= remainingStages) || len(layers)-i-1 == remainingStages {
			out = append(out, layers[start:i+1])
			start = i + 1
			acc = 0
			if len(out) == pp-1 {
				break
			}
		}
	}
	out = append(out, layers[start:])
	return out
}

// layerStats aggregates what the stationary graph needs from a stage.
type layerStats struct {
	fwdFLOPs   float64 // per sample
	params     float64
	mpBytes    float64 // MP all-reduce bytes per sample per pass
	lastActOut float64 // boundary activation bytes per sample
}

func statsOf(layers []workload.Layer) layerStats {
	var s layerStats
	for _, l := range layers {
		s.fwdFLOPs += l.FwdFLOPs
		s.params += l.Params
		s.mpBytes += float64(l.MPAllReducesPerPass) * l.ActivationBytes
	}
	if n := len(layers); n > 0 {
		s.lastActOut = layers[n-1].ActivationBytes
	}
	return s
}
