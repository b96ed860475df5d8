package experiments

import (
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/report"
)

// Study is one entry of the evaluation: a name (what fredsim accepts),
// a one-line description (fredsim's usage text) and a run function
// that returns the study's tables. ab asks Figure 10 for the Fred-A
// and Fred-B rows; every other study ignores it.
type Study struct {
	Name string
	Desc string
	Run  func(s *Session, ab bool) []*report.Table
}

// one adapts a driver's (result, table) pair to a run function's
// table list.
func one[T any](_ T, t *report.Table) []*report.Table { return []*report.Table{t} }

// Studies is the evaluation in paper order — the order All emits its
// tables in.
var Studies = []Study{
	{"hw", "Tables 3-5: physical parameters and FRED overhead",
		func(*Session, bool) []*report.Table { return HWTables() }},
	{"fig1", "Figure 1: 3D-parallelism groups of MP(4)-DP(3)-PP(2)",
		func(*Session, bool) []*report.Table {
			return []*report.Table{Figure1(parallelism.Strategy{MP: 4, DP: 3, PP: 2})}
		}},
	{"meshio", "Section 3.2.1: mesh I/O hotspot law",
		func(s *Session, _ bool) []*report.Table { return one(s.MeshIOStudy()) }},
	{"placement", "Figure 5: device placement trade-off",
		func(s *Session, _ bool) []*report.Table { return one(s.PlacementStudy()) }},
	{"nonaligned", "Figure 6: non-aligned strategy congestion",
		func(s *Session, _ bool) []*report.Table { return one(s.NonAlignedStudy()) }},
	{"fig2", "Figure 2: Transformer-17B strategies on the baseline mesh",
		func(s *Session, _ bool) []*report.Table { return one(s.Figure2()) }},
	{"fig9", "Figure 9: communication microbenchmarks per fabric",
		func(s *Session, _ bool) []*report.Table { return one(s.Figure9()) }},
	{"fig10", "Figure 10: end-to-end training, all workloads (-ab adds Fred-A/B)",
		func(s *Session, ab bool) []*report.Table { return one(s.Figure10(ab)) }},
	{"fig11a", "Figure 11(a): Transformer-17B strategy sweep, baseline vs Fred-D",
		func(s *Session, _ bool) []*report.Table { return one(s.Figure11a()) }},
	{"fig11b", "Figure 11(b): Transformer-1T strategy sweep",
		func(s *Session, _ bool) []*report.Table { return one(s.Figure11b()) }},
	{"scaling", "extension: wafer-size scaling, mesh vs FRED tree",
		func(s *Session, _ bool) []*report.Table { return one(s.ScalabilityStudy()) }},
	{"scaleout", "extension: hierarchical multi-wafer scale-out vs NPU count",
		func(s *Session, _ bool) []*report.Table { return one(s.ScaleOutStudy()) }},
	{"inference", "future work: auto-regressive decode latency",
		func(s *Session, _ bool) []*report.Table { return one(s.InferenceStudy()) }},
	{"crossover", "Section 2.2: endpoint all-reduce algorithm crossover",
		func(s *Session, _ bool) []*report.Table { return one(s.CrossoverStudy()) }},
	{"batch", "extension: minibatch sensitivity",
		func(s *Session, _ bool) []*report.Table { return one(s.BatchSensitivity()) }},
	{"profile", "per-class communication profile, baseline and Fred-D",
		func(s *Session, _ bool) []*report.Table {
			return []*report.Table{s.CommProfile(Baseline), s.CommProfile(FredD)}
		}},
	{"packets", "validation: flow-level vs flit-level mesh",
		func(s *Session, _ bool) []*report.Table { return one(s.PacketValidation()) }},
	{"heat", "per-link traffic heatmap of MP(3)-DP(3)-PP(2) on the mesh",
		func(s *Session, _ bool) []*report.Table {
			return one(s.TrainingHeatmap(parallelism.Strategy{MP: 3, DP: 3, PP: 2}))
		}},
	{"ablations", "seven design-choice ablations, from middle stages to pipeline schedule",
		func(s *Session, _ bool) []*report.Table {
			_, t1 := s.MiddleStageAblation()
			_, t2 := s.RingDirectionAblation()
			_, t3 := s.GradBucketAblation()
			_, t4 := s.BisectionSweep()
			_, t5 := s.MultiWaferStudy()
			_, t6 := s.PlacementSearchAblation()
			_, t7 := s.ScheduleAblation()
			return []*report.Table{t1, t2, t3, t4, t5, t6, t7}
		}},
	{"ep", "extension: beyond-3D parallelism (Expert Parallelism)",
		func(s *Session, _ bool) []*report.Table { return one(s.EPStudy()) }},
	{"faults", "robustness: FRED vs mesh under injected µswitch/link failures",
		func(s *Session, _ bool) []*report.Table { return one(s.FaultSweep()) }},
	{"summary", "headline numbers, paper vs this reproduction",
		func(s *Session, _ bool) []*report.Table { return one(s.Summary()) }},
}

// LookupStudy returns the registry entry named name.
func LookupStudy(name string) (Study, bool) {
	for _, st := range Studies {
		if st.Name == name {
			return st, true
		}
	}
	return Study{}, false
}

// All runs every study as one sweep: each study is a cell of a single
// forEach, so the pool never waits for one study's slowest cell before
// starting the next, and the studies' own cells share its workers. The
// tables come back in registry order, byte-identical at every pool
// width. The sweep itself reports no cells to the progress engine:
// only the studies' cells count.
func (s *Session) All(ab bool) []*report.Table {
	out := make([][]*report.Table, len(Studies))
	s.fanOut("Studies", len(Studies), nil, func(i int, cs *Session) {
		out[i] = Studies[i].Run(cs, ab)
	})
	var tables []*report.Table
	for _, t := range out {
		tables = append(tables, t...)
	}
	return tables
}
