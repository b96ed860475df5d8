package netsim

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/wafernet/fred/internal/sim"
)

const tol = 1e-6

// crossesLink reports whether the flow's deduplicated route contains l.
func crossesLink(f *Flow, l *Link) bool {
	for _, fl := range f.links {
		if fl == l {
			return true
		}
	}
	return false
}

func approx(got, want float64) bool {
	if want == 0 {
		return math.Abs(got) < tol
	}
	return math.Abs(got-want)/math.Abs(want) < tol
}

// line builds a chain of n nodes with links of the given bandwidth and
// zero latency and returns the network and link IDs (i -> i+1).
func line(s *sim.Scheduler, n int, bw float64) (*Network, []LinkID) {
	net := New(s)
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = net.AddNode()
	}
	links := make([]LinkID, n-1)
	for i := 0; i < n-1; i++ {
		links[i] = net.AddLink(ids[i], ids[i+1], bw, 0, "l")
	}
	return net, links
}

func TestSingleFlowTransferTime(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	var done sim.Time = -1
	net.StartFlow(FlowSpec{Links: links, Bytes: 500, Latency: -1, Done: func(f *Flow) { done = s.Now() }})
	s.Run()
	if !approx(done, 5) {
		t.Fatalf("500 bytes at 100 B/s finished at %g, want 5", done)
	}
}

func TestLatencyAddsToCompletion(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l := net.AddLink(a, b, 100, 2.0, "lat")
	var done sim.Time = -1
	net.StartFlow(FlowSpec{Links: []LinkID{l}, Bytes: 100, Latency: -1, Done: func(f *Flow) { done = s.Now() }})
	s.Run()
	if !approx(done, 3) {
		t.Fatalf("completion = %g, want latency 2 + transfer 1 = 3", done)
	}
}

func TestExplicitLatencyOverride(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l := net.AddLink(a, b, 100, 50.0, "lat")
	var done sim.Time = -1
	net.StartFlow(FlowSpec{Links: []LinkID{l}, Bytes: 100, Latency: 0.5, Done: func(f *Flow) { done = s.Now() }})
	s.Run()
	if !approx(done, 1.5) {
		t.Fatalf("completion = %g, want 0.5 + 1 = 1.5", done)
	}
}

func TestTwoFlowsShareFairly(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	var t1, t2 sim.Time
	net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Done: func(f *Flow) { t1 = s.Now() }})
	net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Done: func(f *Flow) { t2 = s.Now() }})
	s.Run()
	// Both at 50 B/s until the first finishes; they tie at t=2.
	if !approx(t1, 2) || !approx(t2, 2) {
		t.Fatalf("equal flows finished at %g, %g, want both 2", t1, t2)
	}
}

func TestShortFlowReleasesBandwidth(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	var tShort, tLong sim.Time
	net.StartFlow(FlowSpec{Links: links, Bytes: 50, Latency: -1, Done: func(f *Flow) { tShort = s.Now() }})
	net.StartFlow(FlowSpec{Links: links, Bytes: 150, Latency: -1, Done: func(f *Flow) { tLong = s.Now() }})
	s.Run()
	// Share 50/50 until t=1 (short done, 50 bytes each), then the long
	// flow gets 100 B/s for its remaining 100 bytes → t=2.
	if !approx(tShort, 1) {
		t.Fatalf("short flow finished at %g, want 1", tShort)
	}
	if !approx(tLong, 2) {
		t.Fatalf("long flow finished at %g, want 2", tLong)
	}
}

func TestMaxMinUnevenBottlenecks(t *testing.T) {
	// Classic 3-flow max-min example:
	//   link A (cap 100) carries f1, f2
	//   link B (cap 30) carries f2
	// f2 is limited to 30 by B; f1 then gets 70 on A.
	s := sim.NewScheduler()
	net := New(s)
	n0, n1, n2 := net.AddNode(), net.AddNode(), net.AddNode()
	la := net.AddLink(n0, n1, 100, 0, "A")
	lb := net.AddLink(n1, n2, 30, 0, "B")
	f1 := net.StartFlow(FlowSpec{Links: []LinkID{la}, Bytes: 1e9, Latency: -1})
	f2 := net.StartFlow(FlowSpec{Links: []LinkID{la, lb}, Bytes: 1e9, Latency: -1})
	s.RunUntil(0) // process activations + recompute at t=0
	if !approx(f2.Rate(), 30) {
		t.Fatalf("f2 rate = %g, want 30", f2.Rate())
	}
	if !approx(f1.Rate(), 70) {
		t.Fatalf("f1 rate = %g, want 70", f1.Rate())
	}
	f1.Cancel()
	f2.Cancel()
	s.Run()
}

func TestInfiniteBandwidthLinksIgnored(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b, c := net.AddNode(), net.AddNode(), net.AddNode()
	l1 := net.AddLink(a, b, math.Inf(1), 0, "inf")
	l2 := net.AddLink(b, c, 100, 0, "cap")
	var done sim.Time
	net.StartFlow(FlowSpec{Links: []LinkID{l1, l2}, Bytes: 200, Latency: -1, Done: func(f *Flow) { done = s.Now() }})
	s.Run()
	if !approx(done, 2) {
		t.Fatalf("completion = %g, want 2 (limited by finite link)", done)
	}
}

func TestFlowOnOnlyInfiniteLinksCompletesImmediately(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l := net.AddLink(a, b, math.Inf(1), 0, "inf")
	var done sim.Time = -1
	net.StartFlow(FlowSpec{Links: []LinkID{l}, Bytes: 1e12, Latency: -1, Done: func(f *Flow) { done = s.Now() }})
	s.Run()
	if done != 0 {
		t.Fatalf("completion = %g, want 0", done)
	}
	if got := net.Link(l).BytesCarried(); got != 1e12 {
		t.Fatalf("BytesCarried = %g, want 1e12", got)
	}
}

func TestZeroByteFlowCompletesAfterLatency(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l := net.AddLink(a, b, 100, 3, "l")
	var done sim.Time = -1
	net.StartFlow(FlowSpec{Links: []LinkID{l}, Bytes: 0, Latency: -1, Done: func(f *Flow) { done = s.Now() }})
	s.Run()
	if !approx(done, 3) {
		t.Fatalf("zero-byte flow completed at %g, want 3", done)
	}
}

func TestMulticastTreeFlowOccupiesAllEdges(t *testing.T) {
	// A broadcast tree with a shared trunk: two trees share the trunk
	// link, so each streams at half the trunk rate.
	s := sim.NewScheduler()
	net := New(s)
	src, mid, d1, d2 := net.AddNode(), net.AddNode(), net.AddNode(), net.AddNode()
	trunk := net.AddLink(src, mid, 100, 0, "trunk")
	b1 := net.AddLink(mid, d1, 1000, 0, "b1")
	b2 := net.AddLink(mid, d2, 1000, 0, "b2")
	var t1, t2 sim.Time
	net.StartFlow(FlowSpec{Links: []LinkID{trunk, b1, b2}, Bytes: 100, Latency: -1, Done: func(f *Flow) { t1 = s.Now() }})
	net.StartFlow(FlowSpec{Links: []LinkID{trunk, b1, b2}, Bytes: 100, Latency: -1, Done: func(f *Flow) { t2 = s.Now() }})
	s.Run()
	if !approx(t1, 2) || !approx(t2, 2) {
		t.Fatalf("tree flows finished at %g, %g, want 2, 2", t1, t2)
	}
}

func TestPauseAndResume(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	var done sim.Time = -1
	f := net.StartFlow(FlowSpec{Links: links, Bytes: 200, Latency: -1, Done: func(fl *Flow) { done = s.Now() }})
	s.At(1, func() {
		f.Pause()
		if f.State() != FlowPaused {
			t.Errorf("state after Pause = %v", f.State())
		}
		if !approx(f.Remaining(), 100) {
			t.Errorf("remaining after 1s = %g, want 100", f.Remaining())
		}
	})
	s.At(4, func() { f.Resume() })
	s.Run()
	// 1s transfer + 3s paused + 1s remaining transfer = done at 5.
	if !approx(done, 5) {
		t.Fatalf("paused flow completed at %g, want 5", done)
	}
}

func TestPauseFreesBandwidthForOthers(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	var otherDone sim.Time
	f := net.StartFlow(FlowSpec{Links: links, Bytes: 1000, Latency: -1})
	net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Done: func(fl *Flow) { otherDone = s.Now() }})
	s.At(0.5, func() { f.Pause() })
	s.Run()
	// Share 50/50 for 0.5s (other has 75 left), then full rate: done at
	// 0.5 + 0.75 = 1.25.
	if !approx(otherDone, 1.25) {
		t.Fatalf("other flow completed at %g, want 1.25", otherDone)
	}
	if f.State() != FlowPaused {
		t.Fatalf("paused flow state = %v", f.State())
	}
	if !approx(f.Remaining(), 975) {
		t.Fatalf("paused flow remaining = %g, want 975", f.Remaining())
	}
}

func TestPauseDuringLatencyStage(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l := net.AddLink(a, b, 100, 2, "l")
	var done sim.Time = -1
	f := net.StartFlow(FlowSpec{Links: []LinkID{l}, Bytes: 100, Latency: -1, Done: func(fl *Flow) { done = s.Now() }})
	s.At(1, func() { f.Pause() })
	s.At(10, func() { f.Resume() })
	s.Run()
	// Resume re-pays the 2s latency: 10 + 2 + 1 = 13.
	if !approx(done, 13) {
		t.Fatalf("completed at %g, want 13", done)
	}
}

func TestCancelSuppressesCallback(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	called := false
	f := net.StartFlow(FlowSpec{Links: links, Bytes: 1000, Latency: -1, Done: func(fl *Flow) { called = true }})
	s.At(1, func() { f.Cancel() })
	s.Run()
	if called {
		t.Fatal("Done callback ran for canceled flow")
	}
	if f.State() != FlowDone {
		t.Fatalf("state = %v, want done", f.State())
	}
	if net.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d after cancel", net.ActiveFlows())
	}
}

func TestDoneCallbackCanChainFlows(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	var last sim.Time
	hops := 0
	var start func()
	start = func() {
		net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Done: func(f *Flow) {
			hops++
			last = s.Now()
			if hops < 3 {
				start()
			}
		}})
	}
	start()
	s.Run()
	if hops != 3 {
		t.Fatalf("chained %d flows, want 3", hops)
	}
	if !approx(last, 3) {
		t.Fatalf("chain finished at %g, want 3", last)
	}
}

func TestLinkUtilisationAccounting(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 3, 100)
	net.StartFlow(FlowSpec{Links: links, Bytes: 250, Latency: -1})
	s.Run()
	for _, id := range links {
		if got := net.Link(id).BytesCarried(); !approx(got, 250) {
			t.Fatalf("link carried %g bytes, want 250", got)
		}
	}
}

func TestNegativeBytesPanics(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("negative bytes did not panic")
		}
	}()
	net.StartFlow(FlowSpec{Links: links, Bytes: -1, Latency: -1})
}

func TestBadLinkPanics(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	defer func() {
		if recover() == nil {
			t.Fatal("zero bandwidth did not panic")
		}
	}()
	net.AddLink(a, b, 0, 0, "bad")
}

func TestManyFlowsCrossTraffic(t *testing.T) {
	// 4-node ring; flows in both directions on disjoint links must not
	// interfere; same-link flows must share.
	s := sim.NewScheduler()
	net := New(s)
	n := make([]NodeID, 4)
	for i := range n {
		n[i] = net.AddNode()
	}
	fw := make([]LinkID, 4) // i -> i+1
	for i := 0; i < 4; i++ {
		fw[i] = net.AddLink(n[i], n[(i+1)%4], 100, 0, "fw")
	}
	var d1, d2 sim.Time
	// Two flows around disjoint halves of the ring.
	net.StartFlow(FlowSpec{Links: []LinkID{fw[0], fw[1]}, Bytes: 100, Latency: -1, Done: func(f *Flow) { d1 = s.Now() }})
	net.StartFlow(FlowSpec{Links: []LinkID{fw[2], fw[3]}, Bytes: 100, Latency: -1, Done: func(f *Flow) { d2 = s.Now() }})
	s.Run()
	if !approx(d1, 1) || !approx(d2, 1) {
		t.Fatalf("disjoint flows finished at %g, %g, want 1, 1", d1, d2)
	}
}

// Property: max-min rates never oversubscribe a link, and every flow is
// bottlenecked somewhere (work conservation: each flow crosses at least
// one saturated link, or runs at infinity when unconstrained).
func TestPropertyMaxMinInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.NewScheduler()
		net := New(s)
		nodes := make([]NodeID, 6)
		for i := range nodes {
			nodes[i] = net.AddNode()
		}
		nLinks := 8
		links := make([]LinkID, nLinks)
		for i := 0; i < nLinks; i++ {
			bw := float64(rng.Intn(900) + 100)
			links[i] = net.AddLink(nodes[rng.Intn(6)], nodes[rng.Intn(6)], bw, 0, "l")
		}
		nFlows := rng.Intn(10) + 1
		flows := make([]*Flow, nFlows)
		for i := range flows {
			k := rng.Intn(3) + 1
			route := make([]LinkID, 0, k)
			seen := map[LinkID]bool{}
			for len(route) < k {
				id := links[rng.Intn(nLinks)]
				if !seen[id] {
					seen[id] = true
					route = append(route, id)
				}
			}
			flows[i] = net.StartFlow(FlowSpec{Links: route, Bytes: 1e15, Latency: -1})
		}
		s.RunUntil(0)
		// Invariant 1: no link oversubscribed.
		rates := net.LinkRates()
		for id, sum := range rates {
			cap := net.Link(id).Bandwidth
			if sum > cap*(1+1e-6) {
				return false
			}
		}
		// Invariant 2: every flow crosses a saturated link.
		for _, fl := range flows {
			saturated := false
			for _, l := range fl.links {
				if rates[l.ID] >= l.Bandwidth*(1-1e-6) {
					saturated = true
					break
				}
			}
			if !saturated {
				return false
			}
		}
		// Invariant 3 (max-min fairness): a flow's rate can only be
		// below another's if they share a link that is saturated and
		// the smaller flow is at most the larger's rate on that link.
		// We check the standard condition: for each flow, on some
		// saturated link it crosses, its rate is >= every other flow's
		// rate on that link (it is a "locally maximal" flow there).
		for _, fl := range flows {
			ok := false
			for _, l := range fl.links {
				if rates[l.ID] < l.Bandwidth*(1-1e-6) {
					continue
				}
				localMax := true
				for _, other := range flows {
					if other.state != FlowActive || !crossesLink(other, l) {
						continue
					}
					if other.rate > fl.rate*(1+1e-6) {
						localMax = false
						break
					}
				}
				if localMax {
					ok = true
					break
				}
			}
			if !ok {
				return false
			}
		}
		for _, fl := range flows {
			fl.Cancel()
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// Property: total bytes delivered equals total bytes requested, for any
// staggered start pattern.
func TestPropertyConservationOfBytes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := sim.NewScheduler()
		net, links := line(s, 2, 100)
		n := rng.Intn(8) + 1
		total := 0.0
		doneBytes := 0.0
		for i := 0; i < n; i++ {
			bytes := float64(rng.Intn(500) + 1)
			total += bytes
			start := sim.Time(rng.Intn(10))
			b := bytes
			s.At(start, func() {
				net.StartFlow(FlowSpec{Links: links, Bytes: b, Latency: -1, Done: func(fl *Flow) { doneBytes += b }})
			})
		}
		s.Run()
		return approx(doneBytes, total) && approx(net.Link(links[0]).BytesCarried(), total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStaggeredArrivalExactTimes(t *testing.T) {
	// f1 (300 B) starts at 0; f2 (100 B) starts at 1.
	// t∈[0,1): f1 alone at 100 → 100 done.
	// t∈[1,3): both at 50 → f2 done at 3 (100B), f1 has 300-100-100=100 left.
	// t∈[3,4): f1 at 100 → done at 4.
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	var t1, t2 sim.Time
	net.StartFlow(FlowSpec{Links: links, Bytes: 300, Latency: -1, Done: func(f *Flow) { t1 = s.Now() }})
	s.At(1, func() {
		net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: -1, Done: func(f *Flow) { t2 = s.Now() }})
	})
	s.Run()
	if !approx(t2, 3) {
		t.Fatalf("f2 finished at %g, want 3", t2)
	}
	if !approx(t1, 4) {
		t.Fatalf("f1 finished at %g, want 4", t1)
	}
}
