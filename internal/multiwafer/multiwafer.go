// Package multiwafer implements the inter-wafer scaling discussion of
// Section 8.3 of the FRED paper ("going beyond a single wafer"): when
// a model needs more than one wafer, the on-wafer FRED fabric works in
// tandem with an inter-wafer interconnect to form hierarchical
// collectives. A global all-reduce decomposes into
//
//  1. a special intra-wafer reduce-scatter performed by FRED, where
//     only the boundary NPUs (those with I/O access) hold the partial
//     results,
//  2. an all-reduce across wafers carried by the boundary NPUs over
//     the inter-wafer links, and
//  3. a final intra-wafer all-gather, with the boundary NPUs
//     broadcasting the result to every NPU of their wafer.
//
// The package also models the naive alternative the paper contrasts —
// a single per-wafer leader exchanging the full gradient across wafers
// (the reduction-tree style of monolithic systems) — to quantify the
// bandwidth amplification of boundary-parallel exchange.
//
// Beyond the paper's fixed 2–8-wafer ring, Config.Dims arranges the
// wafers in a multi-dimensional scale-out grid (the hierarchical
// network-model style ASTRA-sim 2.0 uses to reach 1k–100k NPUs): each
// dimension carries its own set of per-boundary-port rings, the global
// all-reduce becomes reduce-scatter down the dims / ring-all-reduce on
// the last / all-gather back up, and payloads shrink by the dimension
// size at each level. A single dimension reproduces the original
// Section 8.3 ring model exactly. Per-wafer fabrics and each
// dimension's rings touch disjoint link sets, so the sharded netsim
// rate engine (see netsim's domain.go) partitions such a system into
// many independent contention domains by construction.
package multiwafer

import (
	"fmt"
	"math"
	"strconv"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// Config sizes a multi-wafer system.
type Config struct {
	// Wafers is the wafer count (≥ 2).
	Wafers int
	// Variant selects the per-wafer FRED configuration.
	Variant topology.FredVariant
	// BoundaryPorts is the number of inter-wafer ports per wafer, each
	// attached to a distinct boundary NPU (the paper's boundary NPUs
	// are those with I/O access; the baseline wafer has 18 channels).
	BoundaryPorts int
	// PortBW is the per-port one-direction inter-wafer bandwidth,
	// split evenly across the scale-out dimensions.
	PortBW float64
	// PortLatency is the inter-wafer hop latency (off-wafer SerDes —
	// orders of magnitude above on-wafer hops).
	PortLatency float64
	// Dims arranges the wafers in a hierarchical scale-out grid: each
	// entry is one dimension's size (≥ 2) and the product must equal
	// Wafers. Every boundary port gets a ring per dimension. Empty
	// means a single dimension of all wafers — the original flat ring.
	Dims []int
	// Deprecated: FillWorkers is ignored; domain fills always run
	// sequentially. Its only caller is the fredbench benchmark module.
	FillWorkers int
}

// ConfigError reports which Config field failed validation and why.
type ConfigError struct {
	Field  string
	Reason string
}

func (e *ConfigError) Error() string {
	return fmt.Sprintf("multiwafer: invalid %s: %s", e.Field, e.Reason)
}

// Validate checks the configuration, returning a *ConfigError naming
// the offending field instead of failing deep inside topology
// construction.
func (c Config) Validate() error {
	if c.Wafers < 2 {
		return &ConfigError{Field: "Wafers", Reason: fmt.Sprintf("need ≥ 2 wafers, got %d", c.Wafers)}
	}
	if c.BoundaryPorts < 1 {
		return &ConfigError{Field: "BoundaryPorts", Reason: fmt.Sprintf("need ≥ 1 boundary port, got %d", c.BoundaryPorts)}
	}
	// The negated comparisons also reject NaN.
	if !(c.PortBW > 0 && c.PortBW <= math.MaxFloat64) {
		return &ConfigError{Field: "PortBW", Reason: fmt.Sprintf("bandwidth %g must be finite and positive", c.PortBW)}
	}
	if !(c.PortLatency >= 0 && c.PortLatency <= math.MaxFloat64) {
		return &ConfigError{Field: "PortLatency", Reason: fmt.Sprintf("latency %g must be finite and non-negative", c.PortLatency)}
	}
	if len(c.Dims) > 0 {
		product := 1
		for i, d := range c.Dims {
			if d < 2 {
				return &ConfigError{Field: "Dims", Reason: fmt.Sprintf("dimension %d size %d must be ≥ 2", i, d)}
			}
			// product*d > Wafers, tested without overflowing int; this
			// also rejects any dimension larger than Wafers.
			if product > c.Wafers/d {
				return &ConfigError{Field: "Dims", Reason: fmt.Sprintf("dimensions 0..%d multiply past %d wafers", i, c.Wafers)}
			}
			product *= d
		}
		if product != c.Wafers {
			return &ConfigError{Field: "Dims", Reason: fmt.Sprintf("dimension product %d != %d wafers", product, c.Wafers)}
		}
	}
	switch c.Variant {
	case topology.FredA, topology.FredB, topology.FredC, topology.FredD:
	default:
		return &ConfigError{Field: "Variant", Reason: fmt.Sprintf("unknown FRED variant %q", c.Variant)}
	}
	if npus := topology.FredVariantConfig(c.Variant).NPUs; c.BoundaryPorts > npus {
		return &ConfigError{Field: "BoundaryPorts", Reason: fmt.Sprintf("%d ports exceed the wafer's %d NPUs", c.BoundaryPorts, npus)}
	}
	return nil
}

// DefaultConfig returns a 4-wafer Fred-D system with 18 × 128 GB/s
// inter-wafer ports (CXL-class, matching the I/O controllers).
func DefaultConfig() Config {
	return Config{
		Wafers:        4,
		Variant:       topology.FredD,
		BoundaryPorts: 18,
		PortBW:        128e9,
		PortLatency:   200e-9,
	}
}

// System is a set of FRED wafers joined, along every scale-out
// dimension, by a ring of inter-wafer links per boundary port (along
// dimension d, port k of wafer w connects to port k of w's +1
// neighbour in that dimension, both directions).
type System struct {
	cfg    Config
	dims   []int
	stride []int // mixed-radix stride per dimension
	sched  *sim.Scheduler
	net    *netsim.Network
	wafers []*topology.FredFabric
	// fwd[d][w][k]: dimension d, wafer w, port k → w's next neighbour
	// along d; rev is the opposite direction.
	fwd, rev [][][]netsim.LinkID
}

// New builds a multi-wafer system on a fresh scheduler, panicking on
// an invalid configuration (NewErr returns the error instead).
func New(cfg Config) *System {
	s, err := NewErr(cfg)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// NewErr builds a multi-wafer system on a fresh scheduler, returning a
// *ConfigError when the configuration is invalid.
func NewErr(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	dims := cfg.Dims
	if len(dims) == 0 {
		dims = []int{cfg.Wafers} // the original flat ring
	}
	s := &System{cfg: cfg, dims: dims, sched: sim.NewScheduler()}
	s.stride = make([]int, len(dims))
	acc := 1
	for d, size := range dims {
		s.stride[d] = acc
		acc *= size
	}
	s.net = netsim.New(s.sched)
	s.wafers = make([]*topology.FredFabric, 0, cfg.Wafers)
	for w := 0; w < cfg.Wafers; w++ {
		s.wafers = append(s.wafers, topology.NewFredVariant(s.net, cfg.Variant))
	}
	// Each physical port's bandwidth splits across the dimensions it
	// serves; with one dimension this is the original model verbatim
	// (same links, names and bandwidths in the same creation order).
	bw := cfg.PortBW / float64(len(dims))
	var name []byte // reused link-name buffer
	linkName := func(w, d, k int, dir string) string {
		name = append(name[:0], "xw"...)
		name = strconv.AppendInt(name, int64(w), 10)
		if len(dims) > 1 {
			name = append(name, ".d"...)
			name = strconv.AppendInt(name, int64(d), 10)
		}
		name = append(name, '.')
		name = strconv.AppendInt(name, int64(k), 10)
		return string(append(name, dir...))
	}
	s.fwd = make([][][]netsim.LinkID, len(dims))
	s.rev = make([][][]netsim.LinkID, len(dims))
	for d := range dims {
		s.fwd[d] = make([][]netsim.LinkID, cfg.Wafers)
		s.rev[d] = make([][]netsim.LinkID, cfg.Wafers)
		for w := 0; w < cfg.Wafers; w++ {
			next := s.neighbour(w, d)
			s.fwd[d][w] = make([]netsim.LinkID, 0, cfg.BoundaryPorts)
			s.rev[d][w] = make([]netsim.LinkID, 0, cfg.BoundaryPorts)
			for k := 0; k < cfg.BoundaryPorts; k++ {
				// The inter-wafer link joins the boundary NPUs' switch
				// ports; we model it NPU-to-NPU through dedicated links.
				a := s.npuNode(w, k)
				b := s.npuNode(next, k)
				s.fwd[d][w] = append(s.fwd[d][w], s.net.AddLink(a, b, bw, cfg.PortLatency, linkName(w, d, k, "->")))
				s.rev[d][w] = append(s.rev[d][w], s.net.AddLink(b, a, bw, cfg.PortLatency, linkName(w, d, k, "<-")))
			}
		}
	}
	return s, nil
}

// neighbour returns the wafer one step (+1, wrapping) along dimension
// d from wafer w in the mixed-radix grid.
func (s *System) neighbour(w, d int) int {
	size, stride := s.dims[d], s.stride[d]
	coord := (w / stride) % size
	if coord == size-1 {
		return w - (size-1)*stride // wrap to the ring's start
	}
	return w + stride
}

// npuNode returns the netsim node of boundary NPU k on wafer w.
// Boundary NPUs are spread across leaf switches (one per leaf first,
// then wrapping), mirroring the round-robin I/O controller attachment.
func (s *System) npuNode(w, k int) netsim.NodeID {
	f := s.wafers[w]
	npu := s.BoundaryNPU(k)
	// Route through the NPU's own node: inter-wafer traffic enters and
	// leaves via the NPU (which owns the I/O port).
	return nodeOf(f, npu)
}

// BoundaryNPU maps a boundary port index to its NPU index.
func (s *System) BoundaryNPU(k int) int {
	f := s.wafers[0]
	l1s := f.L1Count()
	perL1 := f.NPUCount() / l1s
	// Spread: port k sits under leaf k%l1s at local position k/l1s.
	return (k%l1s)*perL1 + (k/l1s)%perL1
}

// nodeOf recovers the netsim node of an NPU via its up-link source.
func nodeOf(f *topology.FredFabric, npu int) netsim.NodeID {
	return f.Network().Link(f.UpLink(npu, 0)).Src
}

// Wafers returns the wafer count.
func (s *System) Wafers() int { return s.cfg.Wafers }

// Dims returns the scale-out dimension sizes (a single dimension of
// all wafers when Config.Dims was empty).
func (s *System) Dims() []int { return s.dims }

// NPUCount returns the total NPU count across all wafers.
func (s *System) NPUCount() int { return s.cfg.Wafers * s.wafers[0].NPUCount() }

// Close does nothing.
//
// Deprecated: a System holds no resources to release. Its only caller
// is the fredbench benchmark module.
func (s *System) Close() {}

// Network returns the shared flow network.
func (s *System) Network() *netsim.Network { return s.net }

// Wafer returns one wafer's fabric.
func (s *System) Wafer(w int) *topology.FredFabric { return s.wafers[w] }

// allNPUs lists the NPU indices of one wafer.
func (s *System) allNPUs() []int {
	n := s.wafers[0].NPUCount()
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ringOp distinguishes the per-dimension ring collectives of the
// hierarchical exchange by the bytes each directed ring edge carries
// for a payload of s over a ring of D wafers (bidirectional rings, so
// the volume splits across the two directions):
//
//	reduce-scatter / all-gather: (D−1)·s/(2D)
//	all-reduce:                2·(D−1)·s/(2D)
type ringOp int

const (
	ringRS ringOp = iota
	ringAR
	ringAG
)

// ringPhase builds one pipelined phase of ring transfers along
// dimension d on the first `ports` boundary ports, with every wafer's
// forward and reverse edges active at once. Each transfer's one-link
// route is a capacity-capped view into the system's link tables, so
// the phase is read-only: nothing may write or grow its Links.
func (s *System) ringPhase(d int, bytes float64, op ringOp, ports int) collective.Phase {
	size := s.dims[d]
	perEdge := float64(size-1) * bytes / float64(2*size)
	if op == ringAR {
		perEdge *= 2
	}
	ph := make(collective.Phase, 0, 2*ports*s.cfg.Wafers)
	for k := 0; k < ports; k++ {
		for w := 0; w < s.cfg.Wafers; w++ {
			ph = append(ph,
				collective.Transfer{Links: s.fwd[d][w][k : k+1 : k+1], Bytes: perEdge},
				collective.Transfer{Links: s.rev[d][w][k : k+1 : k+1], Bytes: perEdge})
		}
	}
	return ph
}

// interPhases compiles the inter-wafer all-reduce of a per-port
// payload across the scale-out hierarchy: ring reduce-scatter down
// dimensions 0..D−2 (each shrinking the payload by its dimension
// size), a ring all-reduce along the last dimension, and ring
// all-gathers back up in reverse. A single dimension degenerates to
// exactly the original flat bidirectional ring all-reduce phase.
func (s *System) interPhases(bytes float64, ports int) []collective.Phase {
	D := len(s.dims)
	phases := make([]collective.Phase, 0, 2*D-1)
	size := bytes
	for d := 0; d < D-1; d++ {
		phases = append(phases, s.ringPhase(d, size, ringRS, ports))
		size /= float64(s.dims[d])
	}
	phases = append(phases, s.ringPhase(D-1, size, ringAR, ports))
	for d := D - 2; d >= 0; d-- {
		size *= float64(s.dims[d])
		phases = append(phases, s.ringPhase(d, size, ringAG, ports))
	}
	return phases
}

// GlobalAllReduce compiles the hierarchical three-step global
// all-reduce of Section 8.3 and returns its phases as one schedule:
// concurrent in-network reduce-scatters to the boundary NPUs, the
// boundary rings across wafers, and the in-network all-gathers back.
func (s *System) GlobalAllReduce(bytes float64) collective.Schedule {
	out := collective.Schedule{Name: "global-allreduce"}
	K := s.cfg.BoundaryPorts
	shard := bytes / float64(K)
	npus := s.allNPUs()

	// Step 1: per wafer, K concurrent in-network reduces, one shard to
	// each boundary NPU (the "special intra-wafer reduce-scatter").
	step1 := make(collective.Phase, 0, len(s.wafers)*K)
	for w := range s.wafers {
		f := s.wafers[w]
		for k := 0; k < K; k++ {
			sub := collective.FredInNetworkReduce(f, npus, s.BoundaryNPU(k), shard)
			for _, ph := range sub.Phases {
				step1 = append(step1, ph...)
			}
		}
	}
	// Step 2: K concurrent boundary rings across wafers — with a
	// multi-dimensional grid, one phase per hierarchy level
	// (reduce-scatter down, ring all-reduce on the last dimension,
	// all-gather back up); with one dimension, the original single ring
	// all-reduce phase.
	inter := s.interPhases(shard, K)
	// Step 3: per wafer, K concurrent in-network multicasts from the
	// boundary NPUs (the "special all-gather").
	step3 := make(collective.Phase, 0, len(s.wafers)*K)
	for w := range s.wafers {
		f := s.wafers[w]
		for k := 0; k < K; k++ {
			sub := collective.FredInNetworkMulticast(f, s.BoundaryNPU(k), npus, shard)
			for _, ph := range sub.Phases {
				step3 = append(step3, ph...)
			}
		}
	}
	out.Phases = make([]collective.Phase, 0, 2+len(inter))
	out.Phases = append(out.Phases, step1)
	out.Phases = append(out.Phases, inter...)
	out.Phases = append(out.Phases, step3)
	return out
}

// NaiveAllReduce compiles the contrasted design: each wafer reduces to
// a single leader, the leaders ring-all-reduce the FULL payload over
// one boundary port, and each leader broadcasts back — the
// reduction-tree style with no boundary parallelism.
func (s *System) NaiveAllReduce(bytes float64) collective.Schedule {
	out := collective.Schedule{Name: "naive-allreduce"}
	npus := s.allNPUs()
	var step1, step3 collective.Phase
	for w := range s.wafers {
		f := s.wafers[w]
		sub := collective.FredInNetworkReduce(f, npus, s.BoundaryNPU(0), bytes)
		for _, ph := range sub.Phases {
			step1 = append(step1, ph...)
		}
		bc := collective.FredInNetworkMulticast(f, s.BoundaryNPU(0), npus, bytes)
		for _, ph := range bc.Phases {
			step3 = append(step3, ph...)
		}
	}
	// The leaders carry the FULL payload through every dimension in
	// turn — no hierarchical payload shrinking, no port parallelism.
	out.Phases = append(out.Phases, step1)
	for d := range s.dims {
		out.Phases = append(out.Phases, s.ringPhase(d, bytes, ringAR, 1))
	}
	out.Phases = append(out.Phases, step3)
	return out
}

// Run executes a schedule on the system's otherwise-idle network and
// returns the elapsed time.
func (s *System) Run(sched collective.Schedule) float64 {
	return collective.RunToCompletion(s.net, sched)
}
