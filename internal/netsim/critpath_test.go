package netsim

import (
	"math"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/sim"
)

// TestCritPathSoloFlowAllSerial: a flow alone on its route runs at its
// solo rate the whole time, so its blame is pure serialized time.
func TestCritPathSoloFlowAllSerial(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	rec := critpath.NewRecorder()
	net.SetCritPath(rec)
	net.StartFlow(FlowSpec{Links: links, Bytes: 200, Latency: -1, Label: "solo"})
	s.Run()
	if s.MaxCausalDepth() == 0 {
		t.Fatal("SetCritPath did not enable causal tracking")
	}
	if rec.NodeCount() != 1 {
		t.Fatalf("nodes = %d, want 1", rec.NodeCount())
	}
	n := rec.Node(1)
	if n.Kind != critpath.KindFlow || n.Label != "solo" || n.Failed {
		t.Fatalf("flow node wrong: %+v", n)
	}
	if !approx(n.Duration(), 2) {
		t.Fatalf("duration = %g, want 2", n.Duration())
	}
	if !approx(n.Blame.Serial, 2) || n.Blame.Contention != 0 || n.Blame.Fault != 0 {
		t.Fatalf("solo blame = %+v, want all serial", n.Blame)
	}
}

// TestCritPathSharedLinkStallExact: two equal flows sharing one link
// each run at half their solo rate for their whole lifetime, so each
// accrues exactly half its elapsed time as contention.
func TestCritPathSharedLinkStallExact(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	rec := critpath.NewRecorder()
	net.SetCritPath(rec)
	fa := net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Label: "a"})
	fb := net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Label: "b"})
	s.Run()
	// Both at rate 50 on a 100 B/s link: finish at t=2, stall = ∫(1 −
	// 50/100)dt over [0,2] = 1 exactly.
	for _, f := range []*Flow{fa, fb} {
		if !approx(f.Finished(), 2) {
			t.Fatalf("%s finished at %g, want 2", f.Label(), f.Finished())
		}
		if got := f.ContentionStall(); math.Abs(got-1) > 1e-12 {
			t.Fatalf("%s stall = %g, want exactly 1", f.Label(), got)
		}
	}
	if rec.NodeCount() != 2 {
		t.Fatalf("nodes = %d, want 2", rec.NodeCount())
	}
	n := rec.Node(1)
	if !approx(n.Blame.Contention, 1) || !approx(n.Blame.Serial, 1) {
		t.Fatalf("shared blame = %+v, want 1s/1s", n.Blame)
	}
	// The shared saturated link is the binding constraint.
	if n.BindLink != "l" {
		t.Fatalf("bind link = %q, want \"l\"", n.BindLink)
	}
	// Blame sums to the node's duration exactly.
	if got := n.Blame.Total(); math.Abs(got-n.Duration()) > 1e-12 {
		t.Fatalf("blame total %g != duration %g", got, n.Duration())
	}
}

// TestCritPathFaultWindow: a link failure opens no fault window on any
// flow. The flow it aborts and the survivor whose share it frees both
// carry zero fault blame; the survivor's contention stall accrues only
// while the two shared a link.
func TestCritPathFaultWindow(t *testing.T) {
	s, net, l1, l2 := twoPath(100, 100)
	rec := critpath.NewRecorder()
	net.SetCritPath(rec)
	net.StartFlow(FlowSpec{Links: []LinkID{l1, l2}, Bytes: 100, Latency: 0, Label: "victim"})
	survivor := net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 100, Latency: 0, Label: "survivor"})
	s.At(0.5, func() { net.Link(l1).Fail() })
	s.RunUntil(10)
	// Both run at 50 on l2 until the failure at t=0.5; the survivor then
	// drains its last 75 B alone at 100 B/s, finishing at t=1.25.
	if survivor.State() != FlowDone || !approx(survivor.Finished(), 1.25) {
		t.Fatalf("survivor: state %v, finished at %g; want done at 1.25", survivor.State(), survivor.Finished())
	}
	for id, want := range map[critpath.NodeID]critpath.Blame{
		1: {Serial: 0.25, Contention: 0.25},
		2: {Serial: 1, Contention: 0.25},
	} {
		n := rec.Node(id)
		b := n.Blame
		if b.Fault != 0 || !approx(b.Serial, want.Serial) || !approx(b.Contention, want.Contention) {
			t.Errorf("%s blame = %+v, want %+v", n.Label, b, want)
		}
	}
}

// TestCritPathAbortedFlowFailedNode: a flow a link failure aborts is
// recorded as a Failed node. The failure opens no fault window on the
// flow (fault blame belongs to the collective it cuts short), so its
// run up to the abort is all serialized time.
func TestCritPathAbortedFlowFailedNode(t *testing.T) {
	s, net, l1, _ := twoPath(100, 100)
	rec := critpath.NewRecorder()
	net.SetCritPath(rec)
	net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 100, Latency: 0, Label: "victim"})
	s.At(0.5, func() { net.Link(l1).Fail() })
	s.RunUntil(10)
	if rec.NodeCount() != 1 {
		t.Fatalf("nodes = %d, want 1", rec.NodeCount())
	}
	n := rec.Node(1)
	if !n.Failed || n.Label != "victim" {
		t.Fatalf("aborted flow not marked Failed: %+v", n)
	}
	if n.Duration() != 0.5 || n.Blame != (critpath.Blame{Serial: 0.5}) {
		t.Fatalf("duration %g, blame %+v; want 0.5 s, all serial", n.Duration(), n.Blame)
	}
}

// TestCritPathParentEdge: a flow started with a CritParent gets an
// expand edge from the parent node; one started without gets none.
func TestCritPathParentEdge(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	rec := critpath.NewRecorder()
	net.SetCritPath(rec)
	parent := rec.Open(critpath.Node{Kind: critpath.KindOp, Label: "op"})
	net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Label: "orphan"})
	net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Label: "child", CritParent: parent})
	s.Run()
	if rec.EdgeCount() != 1 {
		t.Fatalf("%d edges, want the child's one expand edge", rec.EdgeCount())
	}
}

// TestCritPathObserverEffectFree: attaching a recorder must not change
// any simulated outcome — same completion times, same bytes carried.
func TestCritPathObserverEffectFree(t *testing.T) {
	run := func(attach bool) []float64 {
		s := sim.NewScheduler()
		net, links := line(s, 4, 100)
		if attach {
			net.SetCritPath(critpath.NewRecorder())
		}
		var finished []float64
		for i := 0; i < 3; i++ {
			bytes := float64(100 * (i + 1))
			net.StartFlow(FlowSpec{Links: links[i%len(links):], Bytes: bytes, Latency: -1,
				Done: func(f *Flow) { finished = append(finished, f.Finished()) }})
		}
		s.Run()
		return finished
	}
	plain, observed := run(false), run(true)
	if len(plain) != len(observed) {
		t.Fatalf("completion count changed: %d vs %d", len(plain), len(observed))
	}
	for i := range plain {
		if plain[i] != observed[i] {
			t.Fatalf("completion %d changed: %g vs %g", i, plain[i], observed[i])
		}
	}
}
