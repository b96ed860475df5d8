package netsim

import (
	"math"
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

func TestResumeRunningFlowNoop(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	var done sim.Time
	f := net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Done: func(*Flow) { done = s.Now() }})
	s.At(0.5, func() { f.Resume() }) // not paused: must be a no-op
	s.Run()
	if !approx(done, 1) {
		t.Fatalf("Resume on running flow perturbed completion: %g", done)
	}
}

func TestPauseDoneFlowNoop(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	f := net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1})
	s.Run()
	f.Pause()
	f.Resume()
	if f.State() != FlowDone {
		t.Fatalf("state = %v", f.State())
	}
}

func TestDuplicateLinksDeduplicated(t *testing.T) {
	// A route mentioning the same link twice occupies it once.
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	dup := []LinkID{links[0], links[0], links[0]}
	var done sim.Time
	net.StartFlow(FlowSpec{Links: dup, Bytes: 100, Latency: -1, Done: func(*Flow) { done = s.Now() }})
	s.Run()
	if !approx(done, 1) {
		t.Fatalf("deduped flow finished at %g, want 1", done)
	}
	if got := net.Link(links[0]).BytesCarried(); !approx(got, 100) {
		t.Fatalf("link carried %g, want 100 (no double count)", got)
	}
}

func TestCancelDuringLatencyStage(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l := net.AddLink(a, b, 100, 5, "l")
	called := false
	f := net.StartFlow(FlowSpec{Links: []LinkID{l}, Bytes: 100, Latency: -1, Done: func(*Flow) { called = true }})
	s.At(1, func() { f.Cancel() })
	s.Run()
	if called {
		t.Fatal("canceled latency-stage flow completed")
	}
	if net.ActiveFlows() != 0 {
		t.Fatal("flow leaked into active set")
	}
}

func TestFlowAccessors(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	f := net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Label: "probe"})
	if f.Label() != "probe" {
		t.Fatalf("Label = %q", f.Label())
	}
	if f.Started() != 0 {
		t.Fatalf("Started = %g", f.Started())
	}
	s.Run()
	if !approx(f.Finished(), 1) {
		t.Fatalf("Finished = %g", f.Finished())
	}
	if f.Rate() != 0 {
		t.Fatalf("Rate after done = %g", f.Rate())
	}
}

// TestNodeNameAndCounts: nodes carry no name, only the ID AddNode
// hands out in order; the network counts nodes and links.
func TestNodeNameAndCounts(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	if a != 0 || b != 1 {
		t.Fatalf("node IDs %d, %d, want 0, 1", a, b)
	}
	net.AddLink(a, b, 1, 0, "l")
	if net.nodes != 2 || net.NumLinks() != 1 {
		t.Fatalf("counts: %d nodes, %d links, want 2 and 1", net.nodes, net.NumLinks())
	}
}

func TestThreeWayBottleneckFairness(t *testing.T) {
	// Three flows, one shared link: each gets a third.
	s := sim.NewScheduler()
	net, links := line(s, 2, 90)
	f1 := net.StartFlow(FlowSpec{Links: links, Bytes: 1e9, Latency: -1})
	f2 := net.StartFlow(FlowSpec{Links: links, Bytes: 1e9, Latency: -1})
	f3 := net.StartFlow(FlowSpec{Links: links, Bytes: 1e9, Latency: -1})
	s.RunUntil(0)
	for _, f := range []*Flow{f1, f2, f3} {
		if !approx(f.Rate(), 30) {
			t.Fatalf("rate = %g, want 30", f.Rate())
		}
	}
	f1.Cancel()
	s.RunUntil(0)
	if !approx(f2.Rate(), 45) || !approx(f3.Rate(), 45) {
		t.Fatalf("after cancel rates = %g, %g, want 45", f2.Rate(), f3.Rate())
	}
	f2.Cancel()
	f3.Cancel()
	s.Run()
}

func TestNegativeLatencyLinkPanics(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	net.AddLink(a, b, 1, -1, "bad")
}

func TestFlowStateStrings(t *testing.T) {
	want := map[FlowState]string{
		FlowLatency: "latency", FlowActive: "active", FlowPaused: "paused", FlowDone: "done",
	}
	for st, name := range want {
		if st.String() != name {
			t.Errorf("%d = %q", int(st), st.String())
		}
	}
	if FlowState(99).String() == "" {
		t.Error("unknown state renders empty")
	}
}

func TestVeryLargeTransferNoOverflow(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 1e12)
	var done sim.Time
	net.StartFlow(FlowSpec{Links: links, Bytes: 1e15, Latency: -1, Done: func(*Flow) { done = s.Now() }})
	s.Run()
	if math.Abs(done-1000)/1000 > 1e-9 {
		t.Fatalf("1 PB at 1 TB/s = %g s, want 1000", done)
	}
}

func TestFlowStateString(t *testing.T) {
	cases := map[FlowState]string{
		FlowLatency: "latency",
		FlowActive:  "active",
		FlowPaused:  "paused",
		FlowDone:    "done",
	}
	for state, want := range cases {
		if got := state.String(); got != want {
			t.Errorf("FlowState(%d).String() = %q, want %q", int(state), got, want)
		}
	}
	if got := FlowState(99).String(); got != "FlowState(99)" {
		t.Errorf("unknown state renders %q", got)
	}
}

// BytesCarried must account for partial progress at pause time and
// resume to the full total: 1000 bytes at 100 B/s, paused at t=5 with
// half transferred, resumed at t=7, finishing the rest by t=12.
func TestBytesCarriedUnderPauseResume(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	link := net.Link(links[0])
	var f *Flow
	var done sim.Time = -1
	f = net.StartFlow(FlowSpec{Links: links, Bytes: 1000, Latency: 0,
		Done: func(*Flow) { done = s.Now() }})
	s.At(5, func() { f.Pause() })
	s.At(6, func() {
		if got := link.BytesCarried(); !approx(got, 500) {
			t.Errorf("BytesCarried mid-pause = %g, want 500", got)
		}
		if f.State() != FlowPaused {
			t.Errorf("state mid-pause = %v, want paused", f.State())
		}
	})
	s.At(7, func() { f.Resume() })
	s.Run()
	if !approx(done, 12) {
		t.Fatalf("completion = %g, want 5 + 2 paused + 5 = 12", done)
	}
	if got := link.BytesCarried(); !approx(got, 1000) {
		t.Fatalf("BytesCarried after completion = %g, want 1000", got)
	}
}
