package fred

import (
	"errors"
	"testing"
)

func TestSwitchFacade(t *testing.T) {
	sw := NewSwitch(3, 12)
	if sw.Ports() != 12 || sw.MiddleStages() != 3 {
		t.Fatalf("switch shape %d/%d", sw.Ports(), sw.MiddleStages())
	}
	if sw.MicroSwitches() == 0 {
		t.Fatal("no µswitches")
	}
	plan, err := sw.Route([]Flow{AllReduce([]int{0, 1, 2, 3}), AllReduce([]int{4, 5, 6, 7})})
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestSwitchConflictSurfaces(t *testing.T) {
	sw := NewSwitch(2, 8)
	_, err := sw.Route([]Flow{
		AllReduce([]int{1, 2}), AllReduce([]int{3, 4}),
		AllReduce([]int{0, 5}), AllReduce([]int{6, 7}),
	})
	var conflict *ConflictError
	if !errors.As(err, &conflict) {
		t.Fatalf("expected ConflictError, got %v", err)
	}
}

func TestCompoundPhaseConstructors(t *testing.T) {
	if got := len(ReduceScatterPhases([]int{0, 1, 2, 3})); got != 4 {
		t.Fatalf("reduce-scatter phases = %d", got)
	}
	if got := len(AllGatherPhases([]int{0, 1, 2})); got != 3 {
		t.Fatalf("all-gather phases = %d", got)
	}
	if got := len(AllToAllPhases([]int{0, 1, 2, 3, 4})); got != 4 {
		t.Fatalf("all-to-all phases = %d", got)
	}
	if got := len(ScatterPhases(0, []int{1, 2, 3})); got != 3 {
		t.Fatalf("scatter phases = %d", got)
	}
	if got := len(GatherPhases([]int{1, 2}, 0)); got != 2 {
		t.Fatalf("gather phases = %d", got)
	}
}

func TestPlatformFacade(t *testing.T) {
	for _, sys := range []SystemName{SystemBaseline, SystemFredA, SystemFredB, SystemFredC, SystemFredD} {
		p := NewPlatform(sys)
		if p.NPUs() != 20 {
			t.Fatalf("%s NPUs = %d", sys, p.NPUs())
		}
		if p.BisectionBW() <= 0 {
			t.Fatalf("%s bisection = %g", sys, p.BisectionBW())
		}
	}
	base := NewBaselineMesh()
	fd := NewFred(SystemFredD)
	if fd.BisectionBW() <= base.BisectionBW() {
		t.Fatal("Fred-D bisection must exceed the mesh's")
	}
}

func TestPlatformRunCollective(t *testing.T) {
	p := NewFred(SystemFredD)
	group := []int{0, 1, 2, 3}
	d := p.RunCollective(p.Comm().AllReduce(group, 3e12))
	if d < 0.99 || d > 1.01 {
		t.Fatalf("3 TB all-reduce under one leaf took %g, want ≈ 1s", d)
	}
	p2 := NewFred(SystemFredD)
	c := p2.Comm()
	times := p2.RunConcurrent([]CollectiveSchedule{
		c.AllReduce([]int{0, 1, 2, 3}, 3e12),
		c.AllReduce([]int{4, 5, 6, 7}, 3e12),
	})
	if len(times) != 2 || times[0] <= 0 || times[1] <= 0 {
		t.Fatalf("concurrent times %v", times)
	}
}

func TestSimulateTrainingFacade(t *testing.T) {
	p := NewBaselineMesh()
	m := ResNet152()
	r, err := SimulateTraining(p, m, Strategy{MP: 1, DP: 20, PP: 1}, 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.Total <= 0 || r.Breakdown.DP <= 0 {
		t.Fatalf("report %v", r)
	}
	if _, err := SimulateTraining(NewBaselineMesh(), m, Strategy{MP: 30, DP: 1, PP: 1}, 16); err == nil {
		t.Fatal("oversubscription accepted")
	}
}

func TestWorkloadsFacade(t *testing.T) {
	if len(Workloads()) != 4 {
		t.Fatal("expected 4 workloads")
	}
	if ConsecutivePlacement(Strategy{MP: 2, DP: 5, PP: 2}).Validate(20) != nil {
		t.Fatal("consecutive placement invalid")
	}
}

func TestExperimentFacades(t *testing.T) {
	if _, tbl := NewExperimentSession().MeshIOStudy(); tbl == nil {
		t.Fatal("nil table")
	}
	if tbls := HWTables(); len(tbls) != 3 {
		t.Fatal("HW tables")
	}
}
