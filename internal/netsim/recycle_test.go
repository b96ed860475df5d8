package netsim

import (
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/sim"
)

// TestRecycledFlowStartsClean: once a flow's Done returns, its Flow
// object is recycled by the next StartFlow. The recycled flow carries
// a fresh ID (the handle's generation stamp), and nothing of the
// finished transfer — rate, remaining bytes, contention stall, fault
// time, binding link, retries, latency event — leaks into it.
func TestRecycledFlowStartsClean(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	net.SetCritPath(critpath.NewRecorder())
	var first *Flow
	var firstID uint64
	var stall float64
	// The two flows share the link until the peer completes at t=1, so
	// the first accrues contention stall and a binding link; it
	// completes last (t=2), which puts it on top of the free list.
	net.StartFlow(FlowSpec{Links: links, Bytes: 150, Latency: -1, Label: "old",
		Done: func(f *Flow) { first, firstID, stall = f, f.ID(), f.ContentionStall() }})
	net.StartFlow(FlowSpec{Links: links, Bytes: 50, Latency: -1, Label: "peer"})
	s.Run()
	if first == nil || stall == 0 || first.BindLinkName() == "" {
		t.Fatalf("setup: first flow stall %v, bind link %q; want both set", stall, first.BindLinkName())
	}

	f := net.StartFlow(FlowSpec{Links: links, Bytes: 50, Latency: 0.5, Label: "new"})
	if f != first {
		t.Fatal("StartFlow did not reuse the last finished Flow object")
	}
	if f.ID() == firstID || f.ID() != net.flowSeq-1 {
		t.Fatalf("recycled flow ID %d, want a fresh one (old %d, latest %d)", f.ID(), firstID, net.flowSeq-1)
	}
	if f.State() != FlowLatency || f.Rate() != 0 || f.Remaining() != 50 || f.Label() != "new" ||
		f.ContentionStall() != 0 || f.FaultTime() != 0 || f.BindLinkName() != "" || f.Retries() != 0 ||
		f.Started() != s.Now() || f.Finished() != 0 {
		t.Fatalf("recycled flow leaks old state: state %v rate %v remaining %v label %q stall %v fault %v bind %q retries %d started %v finished %v",
			f.State(), f.Rate(), f.Remaining(), f.Label(), f.ContentionStall(), f.FaultTime(), f.BindLinkName(),
			f.Retries(), f.Started(), f.Finished())
	}
	if !f.latEvent.Pending() || f.latEvent.When() != s.Now()+0.5 {
		t.Fatalf("latency event pending %v at %v, want pending at %v", f.latEvent.Pending(), f.latEvent.When(), s.Now()+0.5)
	}
	if f.activeIdx != -1 || f.calIdx != -1 || f.inDom || f.etaValid {
		t.Fatalf("recycled flow keeps engine bookkeeping: activeIdx %d calIdx %d inDom %v etaValid %v",
			f.activeIdx, f.calIdx, f.inDom, f.etaValid)
	}
	// Run alone, it must behave like a brand-new flow: solo, so no
	// stall, done after its latency plus 50 B at 100 B/s.
	start := s.Now()
	var finished, newStall float64 = -1, -1
	f.done = func(g *Flow) { finished, newStall = g.Finished(), g.ContentionStall() }
	s.Run()
	if finished != start+1 || newStall != 0 {
		t.Fatalf("recycled flow finished at %v with stall %v, want %v and 0", finished, newStall, start+1)
	}
}

// TestCanceledAndFailedFlowsNotRecycled: only flows whose Done ran are
// recycled; a canceled or failed flow's handle stays valid for good.
func TestCanceledAndFailedFlowsNotRecycled(t *testing.T) {
	s, net, l1, l2 := twoPath(100, 100)
	canceled := net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 100, Latency: 0})
	failed := net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 100, Latency: 0})
	s.At(0.5, canceled.Cancel)
	s.At(0.5, func() { net.Link(l2).Fail() })
	s.RunUntil(1)
	if canceled.State() != FlowDone || failed.State() != FlowFailed {
		t.Fatalf("setup: states %v, %v", canceled.State(), failed.State())
	}
	for i := 0; i < 4; i++ {
		if f := net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1, Latency: 0}); f == canceled || f == failed {
			t.Fatalf("StartFlow reused a canceled or failed flow")
		}
	}
	if canceled.State() != FlowDone || canceled.Finished() != 0.5 || failed.State() != FlowFailed {
		t.Fatal("canceled or failed flow handle changed after later starts")
	}
}
