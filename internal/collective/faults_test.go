package collective

import (
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

func TestRoutelessTransferFailsOp(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	s := Schedule{Name: "broken", Phases: []Phase{{Transfer{Links: nil, Bytes: 1e6}}}}
	doneRan := false
	op := Start(net, s, func(*Op) { doneRan = true })
	if op.State() != OpFailed {
		t.Fatalf("state = %v, want OpFailed", op.State())
	}
	if op.Err() == nil || !strings.Contains(op.Err().Error(), "no links") {
		t.Fatalf("Err() = %v, want a no-links error", op.Err())
	}
	if doneRan {
		t.Fatal("onDone fired for a failed op")
	}
	_, err := RunToCompletionErr(net, s)
	if err == nil {
		t.Fatal("RunToCompletionErr returned nil for a routeless schedule")
	}
}

func TestLinkFailureAbortsOp(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	a := net.AddNode()
	b := net.AddNode()
	l := net.AddLink(a, b, 100, 0, "a-b")
	s := Schedule{Name: "doomed", Phases: []Phase{{Transfer{Links: []netsim.LinkID{l}, Bytes: 1000}}}}
	var failed *Op
	op := Start(net, s, nil)
	op.OnFail(func(o *Op) { failed = o })
	sched.After(5, func() { net.Link(l).Fail() })
	sched.Run()
	if failed != op || op.State() != OpFailed {
		t.Fatalf("op state = %v (failed cb %v), want OpFailed", op.State(), failed)
	}
	const want = "collective: doomed: phase 0: flow aborted by link failure"
	if op.Err() == nil || op.Err().Error() != want {
		t.Fatalf("Err() = %v, want %q", op.Err(), want)
	}
	if op.Finished() != 5 {
		t.Fatalf("failed at %v, want 5 (the failure instant)", op.Finished())
	}
}

func TestOnFailAfterFailureFiresImmediately(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	op := Start(net, Schedule{Name: "x", Phases: []Phase{{Transfer{Bytes: 1}}}}, nil)
	fired := false
	op.OnFail(func(*Op) { fired = true })
	if !fired {
		t.Fatal("OnFail on an already-failed op did not fire")
	}
}

func TestAliveGroupShrinksAndVerifies(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	m := topology.NewMesh(net, topology.DefaultMeshConfig())
	full := make([]int, m.NPUCount())
	for i := range full {
		full[i] = i
	}
	net.FailNode(netsim.NodeID(7))
	net.FailNode(netsim.NodeID(13))
	alive := AliveGroup(m, full)
	if len(alive) != m.NPUCount()-2 {
		t.Fatalf("alive group size %d, want %d", len(alive), m.NPUCount()-2)
	}
	for _, n := range alive {
		if n == 7 || n == 13 {
			t.Fatal("dead NPU kept in group")
		}
	}
	// The shrunken ring still computes a correct all-reduce.
	if err := VerifyRingAllReduce(SnakeOrder(m, alive)); err != nil {
		t.Fatal(err)
	}
}

func TestDegradedMeshAllReduceUsesAliveLinksOnly(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	m := topology.NewMesh(net, topology.DefaultMeshConfig())
	group := make([]int, m.NPUCount())
	for i := range group {
		group[i] = i
	}
	// Kill an interior NPU and an extra link: the ring must shrink and
	// detour.
	net.FailNode(netsim.NodeID(6))
	net.Link(m.NeighborLink(m.Index(2, 2), m.Index(3, 2))).Fail()

	comm := NewComm(m)
	s := comm.AllReduceDegraded(group, 1e6)
	if s.Empty() {
		t.Fatal("degraded all-reduce compiled empty")
	}
	for id := range s.LinkBytes() {
		if net.Link(id).Failed() {
			t.Fatalf("schedule uses failed link %s", net.Link(id).Name)
		}
	}
	// And it actually completes on the degraded fabric.
	elapsed, err := RunToCompletionErr(net, s)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed <= 0 {
		t.Fatal("degraded all-reduce finished in no time")
	}
}

func TestDegradedAllReduceOnHealthyMeshMatchesSnakeRing(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	m := topology.NewMesh(net, topology.DefaultMeshConfig())
	group := []int{0, 1, 2, 5, 6, 7}
	comm := NewComm(m)
	want := RingAllReduce(m, SnakeOrder(m, group), 1e6, true)
	got := comm.AllReduceDegraded(group, 1e6)
	if got.TotalBytes() != want.TotalBytes() {
		t.Fatalf("degraded healthy compile moved %g bytes, want %g", got.TotalBytes(), want.TotalBytes())
	}
}
