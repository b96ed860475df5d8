package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

// Differential testing of the incremental engine against the reference
// implementation (reference.go): the same seeded scenario — topology,
// flow arrivals, pause/resume/cancel churn, completion-chained flows —
// runs once on each engine, and every observable must match exactly
// (==, not approximately): the engines are required to be
// bit-identical, which is what keeps the experiment goldens stable.

// churnRecord captures every observable of one scenario run.
type churnRecord struct {
	finishTimes []sim.Time // per flow id; -1 if never finished
	finishOrder []uint64   // flow ids in Done-callback order
	rateSamples []float64  // all flows' rates at each probe time
	linkBytes   []float64  // final per-link byte counters
	// flowBytes is, per link, Σ(Bytes − Remaining()) at run end over
	// the flows routed through it: what linkBytes must conserve.
	flowBytes []float64
	endTime   sim.Time
}

// churnScenario is the deterministic program derived from a seed. All
// randomness is drawn up front so both engines replay the exact same
// schedule.
type churnScenario struct {
	nNodes    int
	linkSrc   []int
	linkDst   []int
	linkBW    []float64
	linkLat   []float64
	flowRoute [][]int // indices into the link slices
	flowBytes []float64
	flowLat   []float64
	flowStart []sim.Time
	// chained flows started from Done callbacks, consumed in
	// completion order.
	chainRoute [][]int
	chainBytes []float64
	ops        []churnOp
	probes     []sim.Time
}

type churnOp struct {
	at   sim.Time
	kind int // 0 pause, 1 resume, 2 cancel
	flow int // index into the initially started flows
}

// roundOr returns a round value (to provoke exact event-time ties)
// with probability 1/2, otherwise an irrational-ish random one.
func roundOr(rng *rand.Rand, round, scale float64) float64 {
	if rng.Intn(2) == 0 {
		return round * float64(1+rng.Intn(8))
	}
	return scale * (0.1 + rng.Float64())
}

func makeScenario(seed int64) churnScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := churnScenario{nNodes: 3 + rng.Intn(8)}
	nLinks := 4 + rng.Intn(12)
	for i := 0; i < nLinks; i++ {
		bw := roundOr(rng, 100, 1000)
		if rng.Float64() < 0.15 {
			bw = math.Inf(1)
		}
		lat := 0.0
		if rng.Intn(2) == 0 {
			lat = roundOr(rng, 0.5, 0.25)
		}
		sc.linkSrc = append(sc.linkSrc, rng.Intn(sc.nNodes))
		sc.linkDst = append(sc.linkDst, rng.Intn(sc.nNodes))
		sc.linkBW = append(sc.linkBW, bw)
		sc.linkLat = append(sc.linkLat, lat)
	}
	route := func() []int {
		k := 1 + rng.Intn(minInt(4, nLinks))
		perm := rng.Perm(nLinks)
		r := append([]int(nil), perm[:k]...)
		if rng.Intn(3) == 0 { // duplicate a hop: exercises dedup
			r = append(r, r[0])
		}
		return r
	}
	nFlows := 4 + rng.Intn(16)
	for i := 0; i < nFlows; i++ {
		sc.flowRoute = append(sc.flowRoute, route())
		sc.flowBytes = append(sc.flowBytes, roundOr(rng, 100, 5000))
		lat := -1.0
		if rng.Intn(3) == 0 {
			lat = roundOr(rng, 1, 0.5)
		}
		sc.flowLat = append(sc.flowLat, lat)
		sc.flowStart = append(sc.flowStart, sim.Time(rng.Intn(8)))
	}
	nChain := rng.Intn(6)
	for i := 0; i < nChain; i++ {
		sc.chainRoute = append(sc.chainRoute, route())
		sc.chainBytes = append(sc.chainBytes, roundOr(rng, 100, 2000))
	}
	nOps := rng.Intn(16)
	for i := 0; i < nOps; i++ {
		at := sim.Time(rng.Intn(12))
		if rng.Intn(2) == 0 {
			at += sim.Time(rng.Float64())
		}
		sc.ops = append(sc.ops, churnOp{at: at, kind: rng.Intn(3), flow: rng.Intn(nFlows)})
	}
	for i := 0; i < 4; i++ {
		sc.probes = append(sc.probes, sim.Time(i*3)+sim.Time(rng.Intn(2)))
	}
	return sc
}

// run replays the scenario on a fresh network, on the reference engine
// when reference is set, and records all observables.
func (sc churnScenario) run(reference bool) churnRecord {
	s := sim.NewScheduler()
	net := New(s)
	if reference {
		net.useReferenceEngine()
	}
	nodes := make([]NodeID, sc.nNodes)
	for i := range nodes {
		nodes[i] = net.AddNode("n")
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

	totalFlows := len(sc.flowRoute) + len(sc.chainRoute)
	rec := churnRecord{finishTimes: make([]sim.Time, totalFlows)}
	for i := range rec.finishTimes {
		rec.finishTimes[i] = -1
	}
	rec.flowBytes = make([]float64, len(links))
	// A handle is valid until its Done returns (the network then
	// recycles the Flow object), so every handle is kept with the ID it
	// was started under: a handle whose ID moved on belongs to a
	// completed flow, which the original handle would have read as
	// done, at rate 0, with everything it moved already credited in
	// its Done.
	credit := func(f *Flow) {
		moved := f.total - f.Remaining()
		for _, l := range f.links {
			rec.flowBytes[l.ID] += moved
		}
	}
	flows := make([]*Flow, len(sc.flowRoute))
	flowIDs := make([]uint64, len(sc.flowRoute))
	var allFlows []*Flow
	var allIDs []uint64
	credited := make(map[uint64]bool)
	chained := 0
	var onDone func(f *Flow)
	onDone = func(f *Flow) {
		rec.finishTimes[f.ID()] = s.Now()
		rec.finishOrder = append(rec.finishOrder, f.ID())
		credit(f)
		credited[f.ID()] = true
		if chained < len(sc.chainRoute) {
			c := chained
			chained++
			nf := net.StartFlow(FlowSpec{
				Links: ids(sc.chainRoute[c]), Bytes: sc.chainBytes[c],
				Latency: -1, Done: onDone, Label: "chain",
			})
			allFlows = append(allFlows, nf)
			allIDs = append(allIDs, nf.ID())
		}
	}
	for i := range sc.flowRoute {
		i := i
		s.At(sc.flowStart[i], func() {
			flows[i] = net.StartFlow(FlowSpec{
				Links: ids(sc.flowRoute[i]), Bytes: sc.flowBytes[i],
				Latency: sc.flowLat[i], Done: onDone, Label: "init",
			})
			flowIDs[i] = flows[i].ID()
			allFlows = append(allFlows, flows[i])
			allIDs = append(allIDs, flows[i].ID())
		})
	}
	for _, op := range sc.ops {
		op := op
		s.At(op.at, func() {
			f := flows[op.flow]
			if f == nil {
				return // not started yet at this op's time
			}
			if f.ID() != flowIDs[op.flow] {
				return // completed: pause, resume and cancel are no-ops
			}
			switch op.kind {
			case 0:
				f.Pause()
			case 1:
				f.Resume()
			case 2:
				f.Cancel()
				rec.finishTimes[f.ID()] = f.Finished()
			}
		})
	}
	for _, at := range sc.probes {
		s.At(at, func() {
			for i, f := range allFlows {
				rate := 0.0
				if f.ID() == allIDs[i] {
					rate = f.Rate()
				}
				rec.rateSamples = append(rec.rateSamples, rate)
			}
		})
	}
	// A safety horizon: paused flows may never resume; don't run
	// forever on pathological schedules (completion events of active
	// flows all land well before this for the byte/bandwidth ranges
	// drawn above).
	rec.endTime = s.RunUntil(1e6)
	for _, id := range links {
		rec.linkBytes = append(rec.linkBytes, net.Link(id).BytesCarried())
	}
	for i, f := range allFlows {
		if f.ID() == allIDs[i] && !credited[allIDs[i]] {
			credit(f)
		}
	}
	return rec
}

// checkConservation asserts that every link's carried bytes equal the
// bytes its flows moved, to 1e-9 relative.
func checkConservation(t *testing.T, seed int64, engine string, rec churnRecord) {
	t.Helper()
	for i, got := range rec.linkBytes {
		want := rec.flowBytes[i]
		if math.Abs(got-want) > 1e-9*math.Max(math.Abs(want), 1) {
			t.Errorf("seed %d: %s link %d carried %v, its flows moved %v", seed, engine, i, got, want)
		}
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestDifferentialEnginesBitIdentical is the tentpole property test:
// 50 seeded random scenarios, each replayed on both engines, every
// observable compared with exact float equality. The scenarios inject
// no faults, so each engine must also conserve bytes: a link carried
// exactly what its flows delivered.
func TestDifferentialEnginesBitIdentical(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		sc := makeScenario(seed)
		opt := sc.run(false)
		ref := sc.run(true)
		checkConservation(t, seed, "optimized", opt)
		checkConservation(t, seed, "reference", ref)

		if opt.endTime != ref.endTime {
			t.Errorf("seed %d: end time %v != reference %v", seed, opt.endTime, ref.endTime)
		}
		if len(opt.finishOrder) != len(ref.finishOrder) {
			t.Fatalf("seed %d: %d completions != reference %d",
				seed, len(opt.finishOrder), len(ref.finishOrder))
		}
		for i := range opt.finishOrder {
			if opt.finishOrder[i] != ref.finishOrder[i] {
				t.Fatalf("seed %d: completion order diverges at %d: flow %d != reference flow %d",
					seed, i, opt.finishOrder[i], ref.finishOrder[i])
			}
		}
		for id, ft := range opt.finishTimes {
			if ft != ref.finishTimes[id] {
				t.Errorf("seed %d: flow %d finished at %v != reference %v",
					seed, id, ft, ref.finishTimes[id])
			}
		}
		if len(opt.rateSamples) != len(ref.rateSamples) {
			t.Fatalf("seed %d: %d rate samples != reference %d",
				seed, len(opt.rateSamples), len(ref.rateSamples))
		}
		for i := range opt.rateSamples {
			if opt.rateSamples[i] != ref.rateSamples[i] {
				t.Errorf("seed %d: rate sample %d: %v != reference %v",
					seed, i, opt.rateSamples[i], ref.rateSamples[i])
			}
		}
		for i := range opt.linkBytes {
			if opt.linkBytes[i] != ref.linkBytes[i] {
				t.Errorf("seed %d: link %d carried %v != reference %v",
					seed, i, opt.linkBytes[i], ref.linkBytes[i])
			}
		}
	}
}

// TestDifferentialKeptEventTie engineers the cross-pass tie the random
// scenarios are unlikely to hit: flow B's completion event is already
// scheduled at t=7 when a recompute moves flow A's ETA to a bitwise-
// equal 7. Under the kept-ETA contract (a flow whose rate a recompute
// leaves bitwise-unchanged keeps its armed completion — here B, whose
// domain the t=2 recompute does not even touch), B's event holds the
// older arming pass and fires first; A, re-armed at the later pass,
// fires second. The sharded engine's calendar key (eta, arming pass,
// activation seq) must reproduce exactly the reference's kept-event
// sequence order.
func TestDifferentialKeptEventTie(t *testing.T) {
	run := func(reference bool) []string {
		s := sim.NewScheduler()
		net := New(s)
		if reference {
			net.useReferenceEngine()
		}
		a, b := net.AddNode("a"), net.AddNode("b")
		l1 := net.AddLink(a, b, 2, 0, "l1")
		l2 := net.AddLink(a, b, 1, 0, "l2")
		var order []string
		done := func(name string) func(*Flow) {
			return func(*Flow) { order = append(order, name) }
		}
		// A alone on l1: rate 2, ETA 4.5. B alone on l2: rate 1, ETA 7.
		net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 9, Latency: 0, Done: done("A"), Label: "A"})
		net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 7, Latency: 0, Done: done("B"), Label: "B"})
		// At t=2, C joins l1: A has 5 bytes left and halves to rate 1,
		// so its new ETA is 2+5/1 = 7, bit-equal to B's scheduled event.
		s.At(2, func() {
			net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 100, Latency: 0, Done: done("C"), Label: "C"})
		})
		s.RunUntil(1e6)
		return order
	}
	opt := run(false)
	ref := run(true)
	want := []string{"B", "A", "C"}
	if len(opt) != len(want) || len(ref) != len(want) {
		t.Fatalf("completion counts: optimized %v, reference %v, want %v", opt, ref, want)
	}
	for i := range want {
		if ref[i] != want[i] {
			t.Fatalf("reference finish order %v, want %v", ref, want)
		}
		if opt[i] != ref[i] {
			t.Fatalf("optimized finish order %v diverges from reference %v", opt, ref)
		}
	}
}

// The steady-state recompute — settle, filling pass, completion
// re-timing — must not allocate: scratch lives in links and flows,
// and completion events are moved in place.
func TestRecomputeSteadyStateZeroAlloc(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode("a"), net.AddNode("b")
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
	if net.ActiveFlows() != 32 {
		t.Fatalf("active = %d, want 32", net.ActiveFlows())
	}
	allocs := testing.AllocsPerRun(100, func() {
		net.ForceFullFill() // force the full filling pass
	})
	if allocs != 0 {
		t.Fatalf("steady-state recompute allocates %v objects/op, want 0", allocs)
	}
}

// TestDifferentialActiveSetCompaction drives enough churn through the
// active set that detach's holes trigger several in-order compactions
// mid-run, with arrivals chained from completions so that new flows
// land behind holes. At every probe the live flows must be in
// activation order, ActiveFlows must count exactly the active flows,
// and both engines must agree on every probe, completion time and link
// byte counter.
func TestDifferentialActiveSetCompaction(t *testing.T) {
	type record struct {
		probes      [][]uint64 // live flow ids in active-set order
		finishTimes map[uint64]sim.Time
		linkBytes   []float64
		compactions int
	}
	run := func(reference bool) record {
		s := sim.NewScheduler()
		net := New(s)
		if reference {
			net.useReferenceEngine()
		}
		a, b := net.AddNode("a"), net.AddNode("b")
		links := []LinkID{
			net.AddLink(a, b, 100, 0, "l0"),
			net.AddLink(a, b, 70, 0, "l1"),
			net.AddLink(a, b, math.Inf(1), 0, "free"),
		}
		rng := rand.New(rand.NewSource(9))
		rec := record{finishTimes: map[uint64]sim.Time{}}
		// Handles with the IDs they were started under: a handle whose
		// ID moved on was recycled after its flow completed.
		var flows []*Flow
		var flowIDs []uint64
		chain := 40
		var onDone func(f *Flow)
		start := func(bytes float64) {
			route := []LinkID{links[rng.Intn(len(links))]}
			if rng.Intn(3) == 0 {
				route = append(route, links[rng.Intn(2)])
			}
			f := net.StartFlow(FlowSpec{Links: route, Bytes: bytes, Latency: 0, Done: onDone})
			flows = append(flows, f)
			flowIDs = append(flowIDs, f.ID())
		}
		onDone = func(f *Flow) {
			rec.finishTimes[f.ID()] = s.Now()
			if chain > 0 {
				chain--
				start(50 + float64(rng.Intn(400)))
			}
		}
		for i := 0; i < 60; i++ {
			start(50 + float64(rng.Intn(2000)))
		}
		prevLen := 0
		for at := sim.Time(0.5); at < 800; at += 0.5 {
			s.At(at, func() {
				var ids []uint64
				lastSeq := uint64(0)
				for i, f := range net.active {
					if f == nil {
						continue
					}
					if len(ids) > 0 && f.actSeq <= lastSeq {
						t.Fatalf("reference=%v t=%v: live flow %d out of activation order", reference, s.Now(), f.ID())
					}
					if f.activeIdx != i {
						t.Fatalf("reference=%v t=%v: flow %d at slot %d records slot %d", reference, s.Now(), f.ID(), i, f.activeIdx)
					}
					lastSeq = f.actSeq
					ids = append(ids, f.ID())
				}
				active := 0
				for i, f := range flows {
					if f.ID() == flowIDs[i] && f.State() == FlowActive {
						active++
					}
				}
				if got := net.ActiveFlows(); got != active || got != len(ids) {
					t.Fatalf("reference=%v t=%v: ActiveFlows = %d, %d flows active, %d live slots", reference, s.Now(), got, active, len(ids))
				}
				if len(net.active) < prevLen && len(ids) > 0 {
					rec.compactions++
				}
				prevLen = len(net.active)
				rec.probes = append(rec.probes, ids)
			})
		}
		s.RunUntil(1e6)
		for _, id := range links {
			rec.linkBytes = append(rec.linkBytes, net.Link(id).BytesCarried())
		}
		if net.ActiveFlows() != 0 {
			t.Fatalf("reference=%v: %d flows still active at the end", reference, net.ActiveFlows())
		}
		return rec
	}
	opt, ref := run(false), run(true)
	if opt.compactions < 3 {
		t.Fatalf("only %d mid-run compactions observed; the churn no longer exercises them", opt.compactions)
	}
	if len(opt.finishTimes) != 100 {
		t.Fatalf("%d flows finished, want 100", len(opt.finishTimes))
	}
	if !reflect.DeepEqual(opt.probes, ref.probes) {
		t.Fatal("live active-set order diverges from the reference engine")
	}
	if !reflect.DeepEqual(opt.finishTimes, ref.finishTimes) {
		t.Fatal("completion times diverge from the reference engine")
	}
	if !reflect.DeepEqual(opt.linkBytes, ref.linkBytes) {
		t.Fatalf("link bytes %v != reference %v", opt.linkBytes, ref.linkBytes)
	}
}
