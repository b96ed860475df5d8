package collective

import (
	"slices"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// TestOpSkipsRecycledFlows: a flow's handle is only valid until its
// Done returns, after which the network recycles the Flow object. Op A
// keeps its phase's drained flow in its active list; that object is
// recycled into op B. Pausing, resuming and failing A must leave B's
// flow, completion time and bytes untouched — an op that walked its
// raw handles would pause, and then cancel, B's flow.
func TestOpSkipsRecycledFlows(t *testing.T) {
	s := sim.NewScheduler()
	net := netsim.New(s)
	a, b, c := net.AddNode("a"), net.AddNode("b"), net.AddNode("c")
	short := net.AddLink(a, b, 100, 0, "short")
	long := net.AddLink(a, b, 100, 0, "long")
	other := net.AddLink(b, c, 100, 0, "other")

	// Op A: one phase of two transfers on disjoint links; the short one
	// drains at t=1, the long one would at t=10.
	opA := Start(net, Schedule{Name: "A", Phases: []Phase{{
		{Links: []netsim.LinkID{short}, Bytes: 100},
		{Links: []netsim.LinkID{long}, Bytes: 1000},
	}}}, nil)
	shortFlow := opA.active[0].f

	var opB *Op
	var bDone sim.Time = -1
	s.At(2, func() {
		// B's only flow reuses the Flow object A's short transfer left.
		opB = Start(net, Schedule{Name: "B", Phases: []Phase{{
			{Links: []netsim.LinkID{other}, Bytes: 300},
		}}}, func(op *Op) { bDone = op.Finished() })
		if opB.active[0].f != shortFlow {
			t.Fatal("B's flow did not reuse A's drained Flow object; the test no longer exercises recycling")
		}
	})
	s.At(3, opA.Pause)
	s.At(3.5, opA.Resume)
	s.At(4, func() { net.Link(long).Fail() })
	s.Run()

	if opA.State() != OpFailed || opA.Err() == nil {
		t.Fatalf("op A: state %v, err %v; want failed by the link failure", opA.State(), opA.Err())
	}
	if opB.State() != OpDone || opB.Err() != nil {
		t.Fatalf("op B: state %v, err %v; want done", opB.State(), opB.Err())
	}
	// Alone on its link from t=2: 300 B at 100 B/s, no latency.
	if bDone != 5 {
		t.Fatalf("op B finished at %v, want 5", bDone)
	}
	if got := net.Link(other).BytesCarried(); got != 300 {
		t.Fatalf("op B's link carried %v bytes, want 300", got)
	}
	if got := net.Link(short).BytesCarried(); got != 100 {
		t.Fatalf("op A's drained link carried %v bytes, want 100", got)
	}
}

// TestAppendLeavesMatchesGroupByL1: the allocation-free leaf set the
// in-network trees use equals groupByL1's sorted leaf list on random
// groups.
func TestAppendLeavesMatchesGroupByL1(t *testing.T) {
	_, f := newFred(topology.FredD)
	rng := newRand(7)
	for trial := 0; trial < 200; trial++ {
		perm := rng.Perm(f.NPUCount())
		group := perm[:1+rng.Intn(len(perm))]
		_, want := groupByL1(f, group)
		var buf [4]int // small on purpose: large groups spill to the heap
		got := appendLeaves(buf[:0], f, group)
		if !slices.Equal(got, want) {
			t.Fatalf("group %v: leaves %v, want %v", group, got, want)
		}
	}
}
