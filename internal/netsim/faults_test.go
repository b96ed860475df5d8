package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

// twoPath builds two parallel links l1 and l2 from a to b.
func twoPath(bw1, bw2 float64) (*sim.Scheduler, *Network, LinkID, LinkID) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l1 := net.AddLink(a, b, bw1, 0, "l1")
	l2 := net.AddLink(a, b, bw2, 0, "l2")
	return s, net, l1, l2
}

func TestLinkFailAbortsFlow(t *testing.T) {
	s, net, l1, _ := twoPath(100, 100)
	log := attachLog(t, net)
	var failed *Flow
	doneRan := false
	f := net.StartFlow(FlowSpec{
		Links: []LinkID{l1}, Bytes: 100, Latency: 0,
		Done:   func(*Flow) { doneRan = true },
		OnFail: func(g *Flow) { failed = g },
		Label:  "victim",
	})
	s.At(0.5, func() { net.Link(l1).Fail() })
	s.RunUntil(10)

	if !net.Link(l1).Failed() {
		t.Fatal("link did not report Failed")
	}
	if f.State() != FlowFailed {
		t.Fatalf("flow state = %v, want failed", f.State())
	}
	if failed != f {
		t.Fatal("OnFail not invoked with the aborted flow")
	}
	if doneRan {
		t.Fatal("Done ran for an aborted flow")
	}
	if got := f.Remaining(); got != 50 {
		t.Fatalf("remaining = %v, want 50 (half transferred before the failure)", got)
	}
	if got := log.counts[EvFlowAbort]; got != 1 {
		t.Fatalf("abort events = %v, want 1", got)
	}
}

func TestFailCatchesLatencyStageFlow(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l1 := net.AddLink(a, b, 100, 1.0, "l1")
	aborted := false
	f := net.StartFlow(FlowSpec{
		Links: []LinkID{l1}, Bytes: 100, Latency: -1,
		OnFail: func(*Flow) { aborted = true },
	})
	// Fail while the flow is still paying its 1s route latency: it must
	// abort at activation, not attach to the dead link.
	s.At(0.5, func() { net.Link(l1).Fail() })
	s.RunUntil(10)
	if f.State() != FlowFailed || !aborted {
		t.Fatalf("flow state = %v, OnFail ran %v; want failed with OnFail", f.State(), aborted)
	}
	if f.Finished() != 1 || f.Remaining() != 100 {
		t.Fatalf("aborted at %v with %v bytes left, want at 1 with 100", f.Finished(), f.Remaining())
	}
	if got := net.Link(l1).BytesCarried(); got != 0 {
		t.Fatalf("dead link carried %v bytes, want 0", got)
	}
}

// TestLatencyStageAbortClosesStageOnce: a flow whose route fails during
// its latency stage reports that stage once, closed at activation, and
// then its abort — no second, zero-length latency span.
func TestLatencyStageAbortClosesStageOnce(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l1 := net.AddLink(a, b, 100, 1.0, "l1")
	var got []string
	net.AddObserver(observerFunc(func(ev Event) {
		if ev.Kind == EvFlowStage {
			got = append(got, fmt.Sprintf("%s %g→%g", ev.Stage, ev.Start, ev.Now))
		} else {
			got = append(got, fmt.Sprintf("abort %g", ev.Now))
		}
	}), EvFlowStage, EvFlowAbort)
	net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 100, Latency: -1})
	s.At(0.5, func() { net.Link(l1).Fail() })
	s.Run()
	if want := []string{"latency 0→1", "abort 1"}; fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("flow events %q, want %q", got, want)
	}
}

func TestFailCatchesPausedFlowOnResume(t *testing.T) {
	s, net, l1, _ := twoPath(100, 100)
	f := net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 100, Latency: 0})
	s.At(0.2, func() { f.Pause() })
	s.At(0.3, func() {
		net.Link(l1).Fail()
		if f.State() != FlowPaused {
			t.Errorf("paused flow state = %v after the failure, want paused until it resumes", f.State())
		}
	})
	s.At(0.4, func() { f.Resume() })
	s.RunUntil(10)
	if f.State() != FlowFailed {
		t.Fatalf("flow state = %v, want failed", f.State())
	}
	if f.Finished() != 0.4 || f.Remaining() != 80 {
		t.Fatalf("aborted at %v with %v bytes left, want at 0.4 with the 80 remaining after the pause", f.Finished(), f.Remaining())
	}
	if got := net.Link(l1).BytesCarried(); got != 20 {
		t.Fatalf("dead link carried %v bytes, want the 20 sent before the pause", got)
	}
}

func TestDegradeRestore(t *testing.T) {
	s, net, l1, _ := twoPath(100, 100)
	f1 := net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1e9, Latency: 0})
	f2 := net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1e9, Latency: 0})
	s.RunUntil(1)
	if f1.Rate() != 50 || f2.Rate() != 50 {
		t.Fatalf("healthy rates = %v, %v, want 50, 50", f1.Rate(), f2.Rate())
	}
	net.Link(l1).Degrade(0.5)
	s.RunUntil(2)
	if f1.Rate() != 25 || f2.Rate() != 25 {
		t.Fatalf("degraded rates = %v, %v, want 25, 25", f1.Rate(), f2.Rate())
	}
	// Degrade factors compose against the healthy bandwidth, not the
	// current one.
	net.Link(l1).Degrade(0.8)
	s.RunUntil(3)
	if f1.Rate() != 40 || f2.Rate() != 40 {
		t.Fatalf("re-degraded rates = %v, %v, want 40, 40", f1.Rate(), f2.Rate())
	}
	net.Link(l1).Restore()
	s.RunUntil(4)
	if f1.Rate() != 50 || f2.Rate() != 50 {
		t.Fatalf("restored rates = %v, %v, want 50, 50", f1.Rate(), f2.Rate())
	}
	if net.Link(l1).Bandwidth != 100 {
		t.Fatalf("restored bandwidth = %v, want 100", net.Link(l1).Bandwidth)
	}
}

func TestDegradePanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	l := net.AddLink(a, b, 100, 0, "l")
	inf := net.AddLink(a, b, math.Inf(1), 0, "inf")
	mustPanic("factor 0", func() { net.Link(l).Degrade(0) })
	mustPanic("factor > 1", func() { net.Link(l).Degrade(1.5) })
	mustPanic("infinite link", func() { net.Link(inf).Degrade(0.5) })
	net.Link(l).Fail()
	mustPanic("failed link", func() { net.Link(l).Degrade(0.5) })
	mustPanic("restore failed link", func() { net.Link(l).Restore() })
}

func TestFailNode(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	hub := net.AddNode()
	var spokes []NodeID
	for i := 0; i < 4; i++ {
		spokes = append(spokes, net.AddNode())
	}
	var in, out []LinkID
	for _, sp := range spokes {
		out = append(out, net.AddLink(hub, sp, 100, 0, "out"))
		in = append(in, net.AddLink(sp, hub, 100, 0, "in"))
	}
	side := net.AddLink(spokes[0], spokes[1], 100, 0, "side")
	if got := net.FailNode(hub); got != 8 {
		t.Fatalf("FailNode failed %d links, want 8", got)
	}
	for _, id := range append(append([]LinkID(nil), in...), out...) {
		if !net.Link(id).Failed() {
			t.Fatalf("link %d still alive after FailNode", id)
		}
	}
	if net.Link(side).Failed() {
		t.Fatal("untouched link failed")
	}
	// Idempotent: a second call finds nothing left to fail.
	if got := net.FailNode(hub); got != 0 {
		t.Fatalf("second FailNode failed %d links, want 0", got)
	}
}

func TestCancelAndPauseAfterAbortAreNoops(t *testing.T) {
	s, net, l1, _ := twoPath(100, 100)
	f := net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 100, Latency: 0})
	s.At(0.5, func() { net.Link(l1).Fail() })
	s.RunUntil(10)
	if f.State() != FlowFailed {
		t.Fatalf("flow state = %v, want failed", f.State())
	}
	f.Cancel()
	f.Pause()
	f.Resume()
	if f.State() != FlowFailed {
		t.Fatalf("state after Cancel/Pause/Resume = %v, want still failed", f.State())
	}
}

func TestFailureRedistributesBandwidth(t *testing.T) {
	// f1 spans both links, f2 rides l1, f3 rides l2: every link carries
	// two flows at 50. When l1 fails, f1 and f2 abort, and f3, the
	// survivor on l2, takes the bandwidth f1 freed.
	s, net, l1, l2 := twoPath(100, 100)
	f1 := net.StartFlow(FlowSpec{Links: []LinkID{l1, l2}, Bytes: 1e9, Latency: 0})
	f2 := net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1e9, Latency: 0})
	f3 := net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 1e9, Latency: 0})
	s.RunUntil(1)
	if f1.Rate() != 50 || f2.Rate() != 50 || f3.Rate() != 50 {
		t.Fatalf("healthy rates = %v, %v, %v, want 50 each", f1.Rate(), f2.Rate(), f3.Rate())
	}
	net.Link(l1).Fail()
	s.RunUntil(2)
	if f1.State() != FlowFailed || f2.State() != FlowFailed {
		t.Fatalf("flows on the failed link: states %v, %v, want failed", f1.State(), f2.State())
	}
	if f3.State() != FlowActive || f3.Rate() != 100 {
		t.Fatalf("survivor: state %v rate %v, want active at 100", f3.State(), f3.Rate())
	}
}

// ---------------------------------------------------------------------
// Differential fault churn: seeded random scenarios mixing flow churn
// with link failures, degradation/recovery and node dropouts, replayed
// on both engines and compared bit-for-bit (the fault analogue of
// TestDifferentialEnginesBitIdentical).
// ---------------------------------------------------------------------

type faultOp struct {
	at     sim.Time
	kind   int // 0 pause, 1 resume, 2 cancel, 3 fail link, 4 degrade, 5 restore, 6 fail node
	flow   int
	link   int
	node   int
	factor float64
}

type faultScenario struct {
	nNodes    int
	linkSrc   []int
	linkDst   []int
	linkBW    []float64
	linkLat   []float64
	flowRoute [][]int
	flowBytes []float64
	flowStart []sim.Time
	ops       []faultOp
	probes    []sim.Time
}

func makeFaultScenario(seed int64) faultScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := faultScenario{nNodes: 3 + rng.Intn(8)}
	nLinks := 6 + rng.Intn(10)
	for i := 0; i < nLinks; i++ {
		// All links finite: Degrade targets are drawn freely.
		sc.linkSrc = append(sc.linkSrc, rng.Intn(sc.nNodes))
		sc.linkDst = append(sc.linkDst, rng.Intn(sc.nNodes))
		sc.linkBW = append(sc.linkBW, roundOr(rng, 100, 1000))
		lat := 0.0
		if rng.Intn(2) == 0 {
			lat = roundOr(rng, 0.5, 0.25)
		}
		sc.linkLat = append(sc.linkLat, lat)
	}
	route := func() []int {
		k := 1 + rng.Intn(minInt(4, nLinks))
		perm := rng.Perm(nLinks)
		return append([]int(nil), perm[:k]...)
	}
	nFlows := 5 + rng.Intn(12)
	for i := 0; i < nFlows; i++ {
		sc.flowRoute = append(sc.flowRoute, route())
		sc.flowBytes = append(sc.flowBytes, roundOr(rng, 100, 5000))
		sc.flowStart = append(sc.flowStart, sim.Time(rng.Intn(8)))
	}
	nOps := 6 + rng.Intn(14)
	for i := 0; i < nOps; i++ {
		at := sim.Time(rng.Intn(12))
		if rng.Intn(2) == 0 {
			at += sim.Time(rng.Float64())
		}
		op := faultOp{
			at:     at,
			flow:   rng.Intn(nFlows),
			link:   rng.Intn(nLinks),
			node:   rng.Intn(sc.nNodes),
			factor: float64(1+rng.Intn(10)) / 10,
		}
		// Weight towards fault events; churn ops keep the interleaving
		// honest.
		switch r := rng.Intn(10); {
		case r < 3:
			op.kind = 3 // fail link
		case r < 5:
			op.kind = 4 // degrade
		case r < 6:
			op.kind = 5 // restore
		case r < 7:
			op.kind = 6 // fail node
		default:
			op.kind = rng.Intn(3) // pause/resume/cancel
		}
		sc.ops = append(sc.ops, op)
	}
	for i := 0; i < 4; i++ {
		sc.probes = append(sc.probes, sim.Time(i*3)+sim.Time(rng.Intn(2)))
	}
	return sc
}

type faultRecord struct {
	states      []FlowState
	remaining   []float64
	finished    []sim.Time
	finishOrder []uint64
	failOrder   []uint64
	rateSamples []float64
	linkBytes   []float64
	endTime     sim.Time
	stats       FillStats
	replays     uint64 // fills the replay served, not compared
}

func (sc faultScenario) run(e engine) faultRecord {
	s := sim.NewScheduler()
	net := e.newNet(s)
	routes := e.routes(net)
	nodes := make([]NodeID, sc.nNodes)
	for i := range nodes {
		nodes[i] = net.AddNode()
	}
	links := make([]LinkID, len(sc.linkBW))
	for i := range links {
		links[i] = net.AddLink(nodes[sc.linkSrc[i]], nodes[sc.linkDst[i]], sc.linkBW[i], sc.linkLat[i], "l")
	}
	ids := func(route []int) []LinkID {
		out := make([]LinkID, len(route))
		for i, li := range route {
			out[i] = links[li]
		}
		return out
	}

	var rec faultRecord
	flows := make([]*Flow, len(sc.flowRoute))
	for i := range sc.flowRoute {
		i := i
		s.At(sc.flowStart[i], func() {
			flows[i] = net.StartFlow(routes.with(FlowSpec{
				Bytes: sc.flowBytes[i], Latency: -1,
				Done:   func(f *Flow) { rec.finishOrder = append(rec.finishOrder, f.ID()) },
				OnFail: func(f *Flow) { rec.failOrder = append(rec.failOrder, f.ID()) },
			}, ids(sc.flowRoute[i])))
		})
	}
	for _, op := range sc.ops {
		op := op
		s.At(op.at, func() {
			switch op.kind {
			case 0, 1, 2:
				f := flows[op.flow]
				if f == nil {
					return
				}
				switch op.kind {
				case 0:
					f.Pause()
				case 1:
					f.Resume()
				case 2:
					f.Cancel()
				}
			case 3:
				net.Link(links[op.link]).Fail()
			case 4:
				if l := net.Link(links[op.link]); !l.Failed() {
					l.Degrade(op.factor)
				}
			case 5:
				if l := net.Link(links[op.link]); !l.Failed() {
					l.Restore()
				}
			case 6:
				net.FailNode(nodes[op.node])
			}
		})
	}
	for _, at := range sc.probes {
		s.At(at, func() {
			for _, f := range flows {
				if f != nil {
					rec.rateSamples = append(rec.rateSamples, f.Rate())
				}
			}
		})
	}
	rec.endTime = s.RunUntil(1e6)
	for _, f := range flows {
		rec.states = append(rec.states, f.State())
		rec.remaining = append(rec.remaining, f.remaining)
		rec.finished = append(rec.finished, f.finished)
	}
	for _, id := range links {
		rec.linkBytes = append(rec.linkBytes, net.Link(id).BytesCarried())
	}
	rec.stats, rec.replays = net.FillStats(), net.replay.hits
	return rec
}

func compareFaultRecords(t *testing.T, tag string, opt, ref faultRecord) {
	t.Helper()
	if opt.endTime != ref.endTime {
		t.Errorf("%s: end time %v != reference %v", tag, opt.endTime, ref.endTime)
	}
	for i := range opt.states {
		if opt.states[i] != ref.states[i] {
			t.Errorf("%s: flow %d state %v != reference %v", tag, i, opt.states[i], ref.states[i])
		}
		if opt.remaining[i] != ref.remaining[i] {
			t.Errorf("%s: flow %d remaining %v != reference %v", tag, i, opt.remaining[i], ref.remaining[i])
		}
		if opt.finished[i] != ref.finished[i] {
			t.Errorf("%s: flow %d finished %v != reference %v", tag, i, opt.finished[i], ref.finished[i])
		}
	}
	if len(opt.finishOrder) != len(ref.finishOrder) {
		t.Fatalf("%s: %d completions != reference %d", tag, len(opt.finishOrder), len(ref.finishOrder))
	}
	for i := range opt.finishOrder {
		if opt.finishOrder[i] != ref.finishOrder[i] {
			t.Fatalf("%s: completion order diverges at %d: %d != %d", tag, i, opt.finishOrder[i], ref.finishOrder[i])
		}
	}
	if len(opt.failOrder) != len(ref.failOrder) {
		t.Fatalf("%s: %d aborts != reference %d", tag, len(opt.failOrder), len(ref.failOrder))
	}
	for i := range opt.failOrder {
		if opt.failOrder[i] != ref.failOrder[i] {
			t.Fatalf("%s: abort order diverges at %d: %d != %d", tag, i, opt.failOrder[i], ref.failOrder[i])
		}
	}
	if len(opt.rateSamples) != len(ref.rateSamples) {
		t.Fatalf("%s: %d rate samples != reference %d", tag, len(opt.rateSamples), len(ref.rateSamples))
	}
	for i := range opt.rateSamples {
		if opt.rateSamples[i] != ref.rateSamples[i] {
			t.Errorf("%s: rate sample %d: %v != reference %v", tag, i, opt.rateSamples[i], ref.rateSamples[i])
		}
	}
	for i := range opt.linkBytes {
		if opt.linkBytes[i] != ref.linkBytes[i] {
			t.Errorf("%s: link %d carried %v != reference %v", tag, i, opt.linkBytes[i], ref.linkBytes[i])
		}
	}
}

// TestDifferentialFaultChurnBitIdentical extends the engine equivalence
// property to fault churn: 50 seeded scenarios of failures, degradation
// and recovery interleaved with flow churn, bit-identical across both
// engines.
func TestDifferentialFaultChurnBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		sc := makeFaultScenario(seed)
		tag := fmt.Sprintf("seed %d", seed)
		compareFaultRecords(t, tag, sc.run(engSharded), sc.run(engReference))
		if t.Failed() {
			t.Fatalf("%s: engines diverged under fault churn", tag)
		}
	}
}

// TestRecomputeFaultChurnZeroAlloc extends the steady-state zero-alloc
// gate to fault churn: after a link failure has torn flows down, and
// while a link oscillates between degraded and healthy, the forced
// recompute must still perform no allocation.
func TestRecomputeFaultChurnZeroAlloc(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	links := make([]LinkID, 8)
	for i := range links {
		links[i] = net.AddLink(a, b, 100+float64(i), 0, "l")
	}
	for i := 0; i < 32; i++ {
		net.StartFlow(FlowSpec{
			Links: []LinkID{links[i%8], links[(i+3)%8]}, Bytes: 1e12, Latency: 0,
		})
	}
	s.RunUntil(0)
	// Fail one link: its flows abort, the rest keep going.
	net.Link(links[7]).Fail()
	s.RunUntil(1)
	if net.ActiveFlows() == 0 || net.ActiveFlows() == 32 {
		t.Fatalf("active = %d, want a strict subset surviving the failure", net.ActiveFlows())
	}
	victim := net.Link(links[0])
	// Warm up once so the dirty-event and heap capacity are in place.
	victim.Degrade(0.5)
	net.recompute()
	victim.Restore()
	net.recompute()
	allocs := testing.AllocsPerRun(100, func() {
		victim.Degrade(0.5)
		net.recompute()
		victim.Restore()
		net.recompute()
	})
	if allocs != 0 {
		t.Fatalf("fault-churn recompute allocates %v objects/op, want 0", allocs)
	}
}
