package collective

import (
	"math"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/topology"
)

// TestOpBlameTilesLifetime: an op's accumulated phase-window blame
// sums to its duration exactly — the windows tile [started, finished].
func TestOpBlameTilesLifetime(t *testing.T) {
	net, m := newMesh()
	rec := critpath.NewRecorder()
	net.SetCritPath(rec)
	c := NewComm(m)
	elapsed, blame, err := RunToCompletionBlame(net, c.AllReduce(allNPUs(m.NPUCount()), gb))
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatalf("elapsed = %g", elapsed)
	}
	if got := blame.Total(); math.Abs(got-elapsed) > 1e-9*elapsed {
		t.Fatalf("blame total %g != elapsed %g", got, elapsed)
	}
	// A lone ring all-reduce's segments use disjoint links: no
	// contention, no faults — the elapsed time is pure serialized
	// transfer.
	if blame.Contention != 0 || blame.Fault != 0 {
		t.Fatalf("lone all-reduce shows contention/fault: %+v", blame)
	}
}

// TestConcurrentOpsAttributeContention: two collectives sharing the
// same links run below their solo rates, and the lost time shows up in
// the contention bucket.
func TestConcurrentOpsAttributeContention(t *testing.T) {
	net, m := newMesh()
	rec := critpath.NewRecorder()
	net.SetCritPath(rec)
	c := NewComm(m)
	var ops []*Op
	for i := 0; i < 2; i++ {
		ops = append(ops, Start(net, c.AllReduce([]int{0, 1}, gb), nil))
	}
	net.Scheduler().Run()
	for i, op := range ops {
		if op.State() != OpDone {
			t.Fatalf("op %d state = %v", i, op.State())
		}
		blame := op.Blame()
		elapsed := float64(op.Duration())
		if math.Abs(blame.Total()-elapsed) > 1e-9*elapsed {
			t.Fatalf("op %d blame total %g != duration %g", i, blame.Total(), elapsed)
		}
		if blame.Contention <= 0 {
			t.Fatalf("op %d shows no contention despite sharing links: %+v", i, blame)
		}
	}
}

// TestOpNodeRecorded: the op opens a DAG node at Start, closes it at
// completion with the accumulated blame, and expand-links its flows.
func TestOpNodeRecorded(t *testing.T) {
	net, m := newMesh()
	rec := critpath.NewRecorder()
	net.SetCritPath(rec)
	c := NewComm(m)
	var op *Op
	op = Start(net, c.AllReduce([]int{0, 1}, gb), nil)
	net.Scheduler().Run()
	if op.State() != OpDone {
		t.Fatalf("state = %v", op.State())
	}
	if op.CritNode() == 0 {
		t.Fatal("op has no DAG node")
	}
	n := rec.Node(op.CritNode())
	if n.Kind != critpath.KindOp || n.Failed {
		t.Fatalf("op node wrong: %+v", n)
	}
	if n.End != op.Finished() || n.Blame != op.Blame() {
		t.Fatalf("op node not closed with final blame: %+v vs %+v", n, op.Blame())
	}
	// Only the op's expand edges to its flows are recorded here.
	if rec.EdgeCount() == 0 {
		t.Fatal("no expand edges from op to its flows")
	}
}

// TestOpFailedTailChargedToFault: when a link failure kills a
// collective, the window from the last completed phase to the failure
// is charged to fault recovery and the node is marked Failed.
func TestOpFailedTailChargedToFault(t *testing.T) {
	net, m := newMesh()
	rec := critpath.NewRecorder()
	net.SetCritPath(rec)
	c := NewComm(m)
	sched := net.Scheduler()
	var op *Op
	op = Start(net, c.AllReduce(allNPUs(m.NPUCount()), gb), nil)
	// Fail a mesh link mid-collective; ring all-reduces have no reroute,
	// so the op dies.
	sched.At(1e-4, func() { net.Link(m.NeighborLink(0, 1)).Fail() })
	sched.Run()
	if op.State() != OpFailed {
		t.Fatalf("state = %v, want OpFailed", op.State())
	}
	blame := op.Blame()
	elapsed := float64(op.Duration())
	if math.Abs(blame.Total()-elapsed) > 1e-9*elapsed {
		t.Fatalf("failed-op blame total %g != duration %g", blame.Total(), elapsed)
	}
	if blame.Fault <= 0 {
		t.Fatalf("failed op carries no fault blame: %+v", blame)
	}
	n := rec.Node(op.CritNode())
	if !n.Failed {
		t.Fatalf("op node not marked Failed: %+v", n)
	}
}

// TestRunToCompletionBlameMatchesErr: with no recorder attached the
// blame is zero and the elapsed time matches RunToCompletionErr on an
// identical fabric — recording is observer-effect-free.
func TestRunToCompletionBlameMatchesErr(t *testing.T) {
	run := func(attach bool) (float64, critpath.Blame) {
		net, m := newMesh()
		if attach {
			net.SetCritPath(critpath.NewRecorder())
		}
		elapsed, blame, err := RunToCompletionBlame(net, NewComm(m).AllReduce(allNPUs(m.NPUCount()), gb))
		if err != nil {
			t.Fatal(err)
		}
		return float64(elapsed), blame
	}
	tPlain, bPlain := run(false)
	tRec, bRec := run(true)
	if tPlain != tRec {
		t.Fatalf("recording changed elapsed: %g vs %g", tPlain, tRec)
	}
	if bPlain != (critpath.Blame{}) {
		t.Fatalf("blame without a recorder: %+v", bPlain)
	}
	if bRec.Total() == 0 {
		t.Fatal("no blame with a recorder attached")
	}
}

// TestOpBindLinkNamed: the longest phase window names its critical
// flow's binding link.
func TestOpBindLinkNamed(t *testing.T) {
	net, f := newFred(topology.FredA)
	net.SetCritPath(critpath.NewRecorder())
	_, _, err := RunToCompletionBlame(net, NewComm(f).AllReduce(allNPUs(f.NPUCount()), gb))
	if err != nil {
		t.Fatal(err)
	}
	// The helper is exercised via the op in RunToCompletionBlame; we
	// only require that some saturated link was identified somewhere in
	// the run (a bandwidth-bound collective always has one).
	found := false
	rec := net.CritPath()
	for id := 1; id <= rec.NodeCount(); id++ {
		if rec.Node(critpath.NodeID(id)).BindLink != "" {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no node names a binding link")
	}
}
