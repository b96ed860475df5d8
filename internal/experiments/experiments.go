// Package experiments contains one driver per table and figure of the
// FRED paper's evaluation (Section 8), regenerating the same rows and
// series on fresh simulator instances. Studies lists them in paper
// order; cmd/fredsim exposes that registry on the command line and
// bench_test.go wraps the drivers as benchmarks.
//
// Drivers are methods on a Session, which owns the observability hooks
// and a worker pool: independent figure/table cells (each a fully
// self-contained scheduler+network+training simulation) fan out across
// the pool and merge back in deterministic paper order, so the emitted
// tables are byte-identical at every pool size. Session.All runs every
// study as one sweep on that pool.
package experiments

import (
	"fmt"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/workload"
)

// System names a Table 5 configuration.
type System string

// The five evaluated systems (Table 5).
const (
	Baseline System = "Baseline"
	FredA    System = "Fred-A"
	FredB    System = "Fred-B"
	FredC    System = "Fred-C"
	FredD    System = "Fred-D"
)

// Systems lists all five configurations in Table 5 order.
func Systems() []System { return []System{Baseline, FredA, FredB, FredC, FredD} }

// Build instantiates a fresh wafer (own scheduler and network) for a
// system and subscribes the session's observers to its network. It is
// safe to call from concurrent cells.
func (s *Session) Build(sys System) topology.Wafer { w, _ := s.build(sys); return w }

// build is Build that also returns the network's observer record (nil
// when no artifact-producing observer is on).
func (s *Session) build(sys System) (topology.Wafer, *netRecord) {
	net := netsim.New(sim.NewScheduler())
	rec := s.observeNetwork(net, sys)
	switch sys {
	case Baseline:
		return topology.NewMesh(net, topology.DefaultMeshConfig()), rec
	case FredA, FredB, FredC, FredD:
		return topology.NewFredVariant(net, topology.FredVariant(sys)), rec
	}
	panic(fmt.Sprintf("experiments: unknown system %q", sys))
}

// defaultStrategy returns the Table 6 strategy of a model.
func defaultStrategy(m *workload.Model) parallelism.Strategy {
	return parallelism.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP}
}

// transformerStrategies is the parallelization-strategy sweep used for
// Figures 2 and 11(a) (Transformer-17B on 20 NPUs; the paper sweeps
// MP/DP/PP combinations including non-aligned ones).
func transformerStrategies() []parallelism.Strategy {
	return []parallelism.Strategy{
		{MP: 20, DP: 1, PP: 1},
		{MP: 10, DP: 2, PP: 1},
		{MP: 5, DP: 4, PP: 1},
		{MP: 5, DP: 2, PP: 2},
		{MP: 5, DP: 3, PP: 1}, // non-aligned (15 workers), Figure 6
		{MP: 4, DP: 5, PP: 1},
		{MP: 3, DP: 3, PP: 2}, // Table 6 default (18 workers)
		{MP: 2, DP: 5, PP: 2},
		{MP: 2, DP: 2, PP: 5},
		{MP: 2, DP: 10, PP: 1},
		{MP: 1, DP: 20, PP: 1},
		{MP: 1, DP: 10, PP: 2},
		{MP: 1, DP: 4, PP: 5},
		{MP: 1, DP: 2, PP: 10},
	}
}

// t1tStrategies is the sweep for Figure 11(b) (Transformer-1T).
func t1tStrategies() []parallelism.Strategy {
	return []parallelism.Strategy{
		{MP: 5, DP: 1, PP: 4}, // the paper's most compute-efficient
		{MP: 5, DP: 4, PP: 1},
		{MP: 4, DP: 5, PP: 1},
		{MP: 2, DP: 10, PP: 1},
		{MP: 2, DP: 5, PP: 2},
		{MP: 1, DP: 20, PP: 1}, // Table 6 default
		{MP: 1, DP: 10, PP: 2},
		{MP: 1, DP: 5, PP: 4},
	}
}
