// Package fred is a from-scratch reproduction of "FRED: A Wafer-scale
// Fabric for 3D Parallel DNN Training" (ISCA 2025): the FRED switch
// micro-architecture and its conflict-free collective routing, the
// wafer-scale fabrics it is evaluated against, a flow-level network
// simulator, collective-communication algorithms, and an
// ASTRA-SIM-style 3D-parallel training simulator.
//
// This package is the public facade. It exposes:
//
//   - switches: NewSwitch builds a Fred_m(P) interconnect of R/D/RD
//     µswitches; Switch.Route routes concurrent collective flows via
//     conflict-graph coloring and verifies them on the data plane.
//   - platforms: NewBaselineMesh and NewFred build the Table 5
//     wafer-scale systems on a fresh discrete-event simulator.
//   - collectives: Platform.Comm compiles all-reduce/reduce-scatter/
//     all-gather/all-to-all/multicast schedules for a platform and
//     runs them on the flow simulator.
//   - training: SimulateTraining executes one training iteration of a
//     workload (ResNet152, Transformer17B, GPT3, Transformer1T) under
//     a Strategy and reports the exposed-communication breakdown.
//   - experiments: NewExperimentSession returns a session whose
//     Figure*/Table* methods regenerate the paper's evaluation.
package fred

import (
	"io"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/fred"
	"github.com/wafernet/fred/internal/multiwafer"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/placement"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// ---- FRED switch micro-architecture ----

// Switch is a FRED switch: a Fred_m(P) interconnect of µswitches with
// reduction/distribution support (Section 4 of the paper).
type Switch struct {
	ic *fred.Interconnect
}

// NewSwitch builds a Fred_m(P) switch. m ≥ 2 is the middle-stage count
// (m = 2 is rearrangeably nonblocking for unicast; the paper deploys
// m = 3); p ≥ 2 is the port count.
func NewSwitch(m, p int) *Switch { return &Switch{ic: fred.NewInterconnect(m, p)} }

// Ports returns the switch's external port count.
func (s *Switch) Ports() int { return s.ic.Ports() }

// MiddleStages returns m.
func (s *Switch) MiddleStages() int { return s.ic.M() }

// MicroSwitches returns the number of µswitch/mux/demux elements.
func (s *Switch) MicroSwitches() int { return s.ic.NumElements() }

// Flow is a FRED communication flow: reduce the data entering on IPs,
// broadcast the result to OPs (Section 5.1).
type Flow = fred.Flow

// Collective flow constructors (Table 2).
var (
	Unicast   = fred.Unicast
	Multicast = fred.Multicast
	Reduce    = fred.Reduce
	AllReduce = fred.AllReduce
)

// Compound collective decompositions (Table 2): serial phases of flows.
var (
	ReduceScatterPhases = fred.ReduceScatter
	AllGatherPhases     = fred.AllGather
	ScatterPhases       = fred.Scatter
	GatherPhases        = fred.Gather
	AllToAllPhases      = fred.AllToAll
)

// RoutingPlan is a conflict-free configuration of the switch for a set
// of concurrent flows.
type RoutingPlan = fred.Plan

// ConflictError reports an uncolorable conflict graph (Section 5.3).
type ConflictError = fred.ConflictError

// Route routes concurrent flows through the switch using the recursive
// conflict-graph-coloring protocol of Section 5.2.
func (s *Switch) Route(flows []Flow) (*RoutingPlan, error) { return s.ic.Route(flows) }

// MustRoute is Route for known-routable flow sets; it panics on error.
func (s *Switch) MustRoute(flows []Flow) *RoutingPlan { return s.ic.MustRoute(flows) }

// WriteDOT renders the switch as a Graphviz digraph; a non-nil plan
// highlights active R/D/RD features and colors routed flows, like
// Figure 7(h).
func (s *Switch) WriteDOT(w io.Writer, plan *RoutingPlan) error { return s.ic.WriteDOT(w, plan) }

// ---- Wafer-scale platforms ----

// Platform is a wafer-scale system instance: a topology embedded in a
// fresh flow-level network with its own event scheduler.
type Platform struct {
	wafer topology.Wafer
}

// SystemName names one of the Table 5 configurations.
type SystemName = experiments.System

// The Table 5 configurations.
const (
	SystemBaseline = experiments.Baseline
	SystemFredA    = experiments.FredA
	SystemFredB    = experiments.FredB
	SystemFredC    = experiments.FredC
	SystemFredD    = experiments.FredD
)

// NewPlatform builds a fresh instance of a Table 5 system.
func NewPlatform(name SystemName) *Platform {
	return &Platform{wafer: experiments.NewSession().Build(name)}
}

// NewBaselineMesh builds the baseline 5×4 wafer-scale mesh.
func NewBaselineMesh() *Platform { return NewPlatform(SystemBaseline) }

// NewFred builds a FRED platform variant ("Fred-A" … "Fred-D").
func NewFred(name SystemName) *Platform { return NewPlatform(name) }

// NewMeshPlatform builds a custom mesh wafer.
func NewMeshPlatform(cfg topology.MeshConfig) *Platform {
	return &Platform{wafer: topology.NewMesh(netsim.New(sim.NewScheduler()), cfg)}
}

// NewFredPlatform builds a custom FRED fabric of any height: the
// config's level list gives each level's fan-in and link bandwidth
// (FredVariantConfig's 2-level Table 5 instances are a starting
// point). It panics with FredConfig.Validate's error on an invalid
// configuration.
func NewFredPlatform(cfg topology.FredConfig) *Platform {
	return &Platform{wafer: topology.NewFredFabric(netsim.New(sim.NewScheduler()), cfg)}
}

// Wafer exposes the underlying topology.
func (p *Platform) Wafer() topology.Wafer { return p.wafer }

// NPUs returns the NPU count.
func (p *Platform) NPUs() int { return p.wafer.NPUCount() }

// BisectionBW returns the one-direction bisection bandwidth.
func (p *Platform) BisectionBW() float64 { return p.wafer.BisectionBW() }

// Comm returns a collective compiler for the platform.
func (p *Platform) Comm() *collective.Comm { return collective.NewComm(p.wafer) }

// CollectiveSchedule is a compiled collective: phases of concurrent
// transfers executable on a platform.
type CollectiveSchedule = collective.Schedule

// RunCollective compiles and executes a schedule on the platform's
// otherwise-idle network and returns its duration in seconds.
func (p *Platform) RunCollective(s collective.Schedule) float64 {
	return collective.RunToCompletion(p.wafer.Network(), s)
}

// RunConcurrent executes schedules concurrently and returns their
// durations.
func (p *Platform) RunConcurrent(ss []CollectiveSchedule) []float64 {
	return collective.RunConcurrently(p.wafer.Network(), ss)
}

// ---- Parallelism, placement, workloads, training ----

// Strategy is a 3D parallelization strategy MP(a)-DP(b)-PP(c).
type Strategy = parallelism.Strategy

// Worker identifies a training worker inside a strategy.
type Worker = parallelism.Worker

// Placement maps worker ranks to physical NPUs.
type Placement = placement.Placement

// ConsecutivePlacement is FRED's device-placement policy (Section 5.3).
func ConsecutivePlacement(s Strategy) Placement { return placement.Consecutive(s) }

// Model is a DNN training workload.
type Model = workload.Model

// The four Table 6 workloads.
var (
	ResNet152      = workload.ResNet152
	Transformer17B = workload.Transformer17B
	GPT3           = workload.GPT3
	Transformer1T  = workload.Transformer1T
	Workloads      = workload.Models
)

// TrainingConfig configures one training-iteration simulation.
type TrainingConfig = training.Config

// TrainingReport is the simulated iteration's outcome.
type TrainingReport = training.Report

// SimulateTraining runs one training iteration of the model under the
// strategy on the platform and reports the end-to-end time decomposed
// into compute and exposed communication.
func SimulateTraining(p *Platform, m *Model, s Strategy, samplesPerReplica int) (*TrainingReport, error) {
	return training.Simulate(training.Config{
		Wafer:               p.wafer,
		Model:               m,
		Strategy:            s,
		MinibatchPerReplica: samplesPerReplica,
	})
}

// ---- Experiments ----

// Table is an aligned-text result table.
type Table = report.Table

// MultiWaferConfig sizes a multi-wafer system (Section 8.3's scaling
// discussion).
type MultiWaferConfig = multiwafer.Config

// MultiWaferSystem is a set of FRED wafers joined by inter-wafer links.
type MultiWaferSystem = multiwafer.System

// MultiWaferConfigError is the typed validation error NewMultiWaferErr
// returns (and NewMultiWafer panics with), naming the offending
// Config field.
type MultiWaferConfigError = multiwafer.ConfigError

// NewMultiWafer builds a multi-wafer system; DefaultMultiWaferConfig
// gives 4 Fred-D wafers with 18 × 128 GB/s boundary ports each.
// NewMultiWaferErr is the error-returning form. Config.Dims arranges
// the wafers in a hierarchical scale-out grid (e.g. {8, 8} for 64
// wafers in an 8×8 torus of boundary-port rings).
var (
	NewMultiWafer           = multiwafer.New
	NewMultiWaferErr        = multiwafer.NewErr
	DefaultMultiWaferConfig = multiwafer.DefaultConfig
)

// ExperimentSession owns the observability hooks and worker pool of an
// experiment run: drivers called on a session fan their independent
// figure/table cells across the pool (SetParallel; default GOMAXPROCS)
// and merge rows and tables back in deterministic paper order, so the
// output is byte-identical at every pool size. Every driver of the
// paper's evaluation is a method on it; experiments.Studies lists them
// in paper order.
type ExperimentSession = experiments.Session

// NewExperimentSession returns a session with observability off and
// the worker pool sized to GOMAXPROCS.
var NewExperimentSession = experiments.NewSession

// HWTables renders Tables 3-5: physical parameters, FRED overhead and
// the evaluated configurations. It needs no session: nothing is
// simulated.
var HWTables = experiments.HWTables
