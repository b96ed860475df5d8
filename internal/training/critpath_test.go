package training

import (
	"math"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/workload"
)

// runBlamed simulates one iteration with a critpath recorder attached
// to the wafer's network.
func runBlamed(t *testing.T, w topology.Wafer, m *workload.Model) *Report {
	t.Helper()
	w.Network().SetCritPath(critpath.NewRecorder())
	r, err := Simulate(Config{
		Wafer:               w,
		Model:               m,
		Strategy:            parallelism.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP},
		MinibatchPerReplica: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkIteration asserts the blame-decomposition invariants of one
// analyzed iteration.
func checkIteration(t *testing.T, it *critpath.Iteration, total float64) {
	t.Helper()
	if it == nil {
		t.Fatal("no CritPath on a recorded run")
	}
	if it.Total != total {
		t.Fatalf("CritPath.Total = %g, want report total %g", it.Total, total)
	}
	tiny := 1e-9 * total
	sum := it.Compute + it.CommSerial + it.CommContention + it.FaultRecovery + it.Idle
	if math.Abs(sum-total) > tiny {
		t.Fatalf("buckets sum to %g, want %g (err %g)", sum, total, sum-total)
	}
	for name, v := range map[string]float64{
		"compute": it.Compute, "comm-serialized": it.CommSerial,
		"comm-contention": it.CommContention, "fault-recovery": it.FaultRecovery,
		"idle": it.Idle,
	} {
		if v < 0 {
			t.Fatalf("negative %s bucket %g", name, v)
		}
	}
	// The extracted path and the DAG's longest chain both lower-bound
	// the iteration time.
	if it.PathLen > total+tiny {
		t.Fatalf("PathLen %g exceeds total %g", it.PathLen, total)
	}
	if it.LongestChain > total+tiny {
		t.Fatalf("LongestChain %g exceeds total %g", it.LongestChain, total)
	}
	if len(it.Segments) == 0 {
		t.Fatal("no critical-path segments recorded")
	}
	if it.DagNodes <= 0 || it.MaxCausalDepth == 0 {
		t.Fatalf("DAG statistics missing: %d nodes, depth %d", it.DagNodes, it.MaxCausalDepth)
	}
	// Every kept segment's blame fits inside its duration.
	for _, s := range it.Segments {
		if s.Blame.Total() > s.Duration()+tiny {
			t.Fatalf("segment %q blame %g exceeds duration %g", s.Label, s.Blame.Total(), s.Duration())
		}
	}
}

// TestCritPathDecompositionProperty is the blame-decomposition
// property test: for every workload × fabric pairing (covering
// stationary pure-DP, stationary 3D, and streaming engines) the five
// buckets sum to the iteration time within 1e-9·Total, the critical
// path lower-bounds the iteration time, and attaching the recorder
// does not change the simulated result.
func TestCritPathDecompositionProperty(t *testing.T) {
	for _, m := range workload.Models() {
		for _, mk := range []struct {
			name string
			make func() topology.Wafer
		}{
			{"mesh", newMesh},
			{"fred-a", func() topology.Wafer { return newFred(topology.FredA) }},
			{"fred-d", func() topology.Wafer { return newFred(topology.FredD) }},
		} {
			t.Run(m.Name+"/"+mk.name, func(t *testing.T) {
				plain := runOn(t, mk.make(), m)
				if plain.CritPath != nil {
					t.Fatal("CritPath set without a recorder")
				}
				r := runBlamed(t, mk.make(), m)
				if r.Total != plain.Total {
					t.Fatalf("recording changed the iteration: %g vs %g", r.Total, plain.Total)
				}
				checkIteration(t, r.CritPath, r.Total)
			})
		}
	}
}

// TestCritPathDeterministic: two identical recorded runs produce the
// same analyzed iteration (the artifact-determinism foundation).
func TestCritPathDeterministic(t *testing.T) {
	a := runBlamed(t, newMesh(), workload.Transformer17B())
	b := runBlamed(t, newMesh(), workload.Transformer17B())
	if a.CritPath.Total != b.CritPath.Total ||
		a.CritPath.Compute != b.CritPath.Compute ||
		a.CritPath.CommSerial != b.CritPath.CommSerial ||
		a.CritPath.CommContention != b.CritPath.CommContention ||
		a.CritPath.Idle != b.CritPath.Idle ||
		len(a.CritPath.Segments) != len(b.CritPath.Segments) {
		t.Fatalf("identical runs decomposed differently:\n%+v\n%+v", a.CritPath, b.CritPath)
	}
}

// TestCritPathMetricsEmitted: a recorded report emits critpath/*
// series; an unrecorded one does not.
func TestCritPathMetricsEmitted(t *testing.T) {
	r := runBlamed(t, newMesh(), workload.ResNet152())
	reg := metrics.NewRegistry()
	r.RecordMetrics(reg)
	if got := reg.Lookup("critpath/iterations").Value(); got != 1 {
		t.Fatalf("critpath/iterations = %g", got)
	}
	sum := 0.0
	for _, name := range []string{"compute_s", "comm_serialized_s", "comm_contention_s", "fault_recovery_s", "idle_s"} {
		sum += reg.Lookup("critpath/" + name).Value()
	}
	if math.Abs(sum-r.Total) > 1e-9*r.Total {
		t.Fatalf("critpath series sum to %g, want %g", sum, r.Total)
	}

	plain := runOn(t, newMesh(), workload.ResNet152())
	reg2 := metrics.NewRegistry()
	plain.RecordMetrics(reg2)
	if reg2.Lookup("critpath/iterations") != nil {
		t.Fatal("unrecorded run emitted critpath series")
	}
}

// TestCritPathStreamingChainTiles: the streaming engine's global chain
// tiles [start, end] — PathLen equals Total (no idle gap, since the
// wave timeline is itself the critical path).
func TestCritPathStreamingChainTiles(t *testing.T) {
	r := runBlamed(t, newFred(topology.FredD), workload.GPT3())
	it := r.CritPath
	checkIteration(t, it, r.Total)
	if math.Abs(it.PathLen-it.Total) > 1e-9*it.Total {
		t.Fatalf("streaming chain PathLen %g != Total %g", it.PathLen, it.Total)
	}
}

// TestWaitBlame covers the wait-window decomposition helper.
func TestWaitBlame(t *testing.T) {
	if b := waitBlame(0, 0, nil); b != (critpath.Blame{}) {
		t.Fatalf("empty wait = %+v", b)
	}
	if b := waitBlame(2, 0, nil); b != (critpath.Blame{Serial: 2}) {
		t.Fatalf("nil-op wait = %+v, want all serial", b)
	}
}

// TestSegRecorderNilSafe: the zero segRecorder records nothing.
func TestSegRecorderNilSafe(t *testing.T) {
	var s segRecorder
	s.compute("c", 0, 1)
	s.opWait(ClassMP, "w", 1, 2, nil)
	if len(s.segs) != 0 {
		t.Fatalf("nil-rec segRecorder recorded %d segments", len(s.segs))
	}
}

// TestSetCritPathEnablesCausal: attaching a recorder turns causal
// event tracking on for the wafer's scheduler.
func TestSetCritPathEnablesCausal(t *testing.T) {
	// depth runs one event that schedules another: a depth-1 chain when
	// causal tracking is on, an untracked 0 when it is off.
	depth := func(attach bool) uint64 {
		s := sim.NewScheduler()
		net := netsim.New(s)
		if attach {
			net.SetCritPath(critpath.NewRecorder())
		}
		s.After(0, func() { s.After(1, func() {}) })
		s.Run()
		return s.MaxCausalDepth()
	}
	if depth(false) != 0 {
		t.Fatal("causal tracking on by default")
	}
	if depth(true) != 1 {
		t.Fatal("SetCritPath did not enable causal tracking")
	}
}
