package netsim

import (
	"math/rand"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/sim"
)

// Differential and unit tests for the contention-domain-sharded rate
// engine (domain.go): the sharded fill with per-domain dirty bits must
// be bit-identical to the reference oracle over churn and fault scenarios that exercise
// domain merges (bridge flows spanning groups), splits (the O(1)
// partition reset after drains), Degrade/Restore dirtying, and link
// failures mid-collective.

// shardRecord captures every observable of one sharded-scenario run.
type shardRecord struct {
	finishTimes []sim.Time // per flow id; -1 if never finished
	finishOrder []uint64   // flow ids in Done-callback order
	failOrder   []uint64   // flow ids in OnFail order
	rateSamples []float64  // all flows' rates at each probe
	linkBytes   []float64  // final per-link byte counters (telemetry)
	peakUtil    []float64  // final per-link peak utilization (telemetry)
	stall       []float64  // per-flow contention integrals (critpath)
	bindLink    []string   // per-flow binding links (critpath blame)
	endTime     sim.Time
	stats       FillStats // the sharded engine's work, not vs reference
}

// shardScenario is a deterministic multi-group program derived from a
// seed: G link groups that form independent contention domains, intra-
// group flows, bridge flows that merge two groups' domains mid-run,
// pause/resume/cancel churn, and Degrade/Restore/Fail fault ops.
type shardScenario struct {
	groups    int
	linkBW    []float64
	linkLat   []float64
	linkGroup []int
	flowRoute [][]int // indices into the link slices
	flowBytes []float64
	flowStart []sim.Time
	ops       []shardOp
	probes    []sim.Time
}

type shardOp struct {
	at     sim.Time
	kind   int // 0 pause, 1 resume, 2 cancel, 3 degrade, 4 restore, 5 fail
	flow   int
	link   int
	factor float64
}

func makeShardScenario(seed int64) shardScenario {
	rng := rand.New(rand.NewSource(seed))
	sc := shardScenario{groups: 2 + rng.Intn(3)}
	linksOf := make([][]int, sc.groups)
	for g := 0; g < sc.groups; g++ {
		nl := 3 + rng.Intn(4)
		for i := 0; i < nl; i++ {
			lat := 0.0
			if rng.Intn(2) == 0 {
				lat = roundOr(rng, 0.5, 0.25)
			}
			linksOf[g] = append(linksOf[g], len(sc.linkBW))
			sc.linkBW = append(sc.linkBW, roundOr(rng, 100, 1000))
			sc.linkLat = append(sc.linkLat, lat)
			sc.linkGroup = append(sc.linkGroup, g)
		}
	}
	pick := func(g, k int) []int {
		ls := linksOf[g]
		if k > len(ls) {
			k = len(ls)
		}
		perm := rng.Perm(len(ls))
		r := make([]int, 0, k)
		for _, i := range perm[:k] {
			r = append(r, ls[i])
		}
		return r
	}
	nFlows := 6 + rng.Intn(14)
	for i := 0; i < nFlows; i++ {
		g := rng.Intn(sc.groups)
		route := pick(g, 1+rng.Intn(3))
		if rng.Float64() < 0.2 { // bridge flow: merges two domains
			route = append(route, pick((g+1+rng.Intn(sc.groups-1))%sc.groups, 1+rng.Intn(2))...)
		}
		sc.flowRoute = append(sc.flowRoute, route)
		// Bytes stay strictly positive: zero-byte flows finish inside
		// activate, where completion-vs-recompute interleaving at tied
		// timestamps is not part of the cross-engine contract.
		sc.flowBytes = append(sc.flowBytes, roundOr(rng, 100, 5000))
		sc.flowStart = append(sc.flowStart, sim.Time(rng.Intn(8)))
	}
	nOps := 4 + rng.Intn(12)
	for i := 0; i < nOps; i++ {
		at := sim.Time(rng.Intn(12))
		if rng.Intn(2) == 0 {
			at += sim.Time(rng.Float64())
		}
		op := shardOp{at: at, kind: rng.Intn(6), flow: rng.Intn(nFlows), link: rng.Intn(len(sc.linkBW))}
		op.factor = 0.25 * float64(1+rng.Intn(3))
		sc.ops = append(sc.ops, op)
	}
	for i := 0; i < 4; i++ {
		sc.probes = append(sc.probes, sim.Time(i*3)+sim.Time(rng.Intn(2)))
	}
	return sc
}

// run replays the scenario, on the reference engine when reference is
// set, and records all observables.
func (sc shardScenario) run(reference bool) shardRecord {
	s := sim.NewScheduler()
	net := New(s)
	if reference {
		net.useReferenceEngine()
	}
	net.EnableLinkTelemetry()
	net.SetCritPath(critpath.NewRecorder())
	a, b := net.AddNode("a"), net.AddNode("b")
	links := make([]LinkID, len(sc.linkBW))
	failed := make([]bool, len(sc.linkBW))
	for i := range links {
		links[i] = net.AddLink(a, b, sc.linkBW[i], sc.linkLat[i], "l")
	}
	rec := shardRecord{
		finishTimes: make([]sim.Time, len(sc.flowRoute)),
		stall:       make([]float64, len(sc.flowRoute)),
		bindLink:    make([]string, len(sc.flowRoute)),
	}
	for i := range rec.finishTimes {
		rec.finishTimes[i] = -1
	}
	// Handles are kept with the IDs they were started under: once a
	// flow's Done returns its Flow object may be recycled, so its blame
	// is read inside Done, and a handle whose ID moved on is a completed
	// flow (ops on it are no-ops, its rate is 0).
	flows := make([]*Flow, len(sc.flowRoute))
	ids := make([]uint64, len(sc.flowRoute))
	live := func(i int) *Flow {
		if f := flows[i]; f != nil && f.ID() == ids[i] {
			return f
		}
		return nil
	}
	for i := range sc.flowRoute {
		i := i
		route := make([]LinkID, len(sc.flowRoute[i]))
		for j, li := range sc.flowRoute[i] {
			route[j] = links[li]
		}
		s.At(sc.flowStart[i], func() {
			flows[i] = net.StartFlow(FlowSpec{
				Links: route, Bytes: sc.flowBytes[i], Latency: -1, Label: "f",
				Done: func(f *Flow) {
					rec.finishTimes[f.ID()] = s.Now()
					rec.finishOrder = append(rec.finishOrder, f.ID())
					rec.stall[i] = f.ContentionStall()
					rec.bindLink[i] = f.BindLinkName()
				},
				OnFail: func(f *Flow) {
					rec.failOrder = append(rec.failOrder, f.ID())
				},
			})
			ids[i] = flows[i].ID()
		})
	}
	for _, op := range sc.ops {
		op := op
		s.At(op.at, func() {
			switch op.kind {
			case 0, 1, 2:
				f := live(op.flow)
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
				if !failed[op.link] {
					net.Link(links[op.link]).Degrade(op.factor)
				}
			case 4:
				if !failed[op.link] {
					net.Link(links[op.link]).Restore()
				}
			case 5:
				if !failed[op.link] {
					failed[op.link] = true
					net.Link(links[op.link]).Fail()
				}
			}
		})
	}
	for _, at := range sc.probes {
		s.At(at, func() {
			for i, f := range flows {
				switch {
				case f == nil:
					rec.rateSamples = append(rec.rateSamples, -1)
				case live(i) == nil:
					rec.rateSamples = append(rec.rateSamples, 0)
				default:
					rec.rateSamples = append(rec.rateSamples, f.Rate())
				}
			}
		})
	}
	rec.endTime = s.RunUntil(1e6)
	for _, id := range links {
		rec.linkBytes = append(rec.linkBytes, net.Link(id).BytesCarried())
		rec.peakUtil = append(rec.peakUtil, net.Link(id).PeakUtil())
	}
	for i := range flows {
		if f := live(i); f != nil {
			rec.stall[i] = f.ContentionStall()
			rec.bindLink[i] = f.BindLinkName()
		}
	}
	rec.stats = net.FillStats()
	return rec
}

func compareShardRecords(t *testing.T, seed int64, name string, got, want shardRecord) {
	t.Helper()
	if got.endTime != want.endTime {
		t.Errorf("seed %d [%s]: end time %v != %v", seed, name, got.endTime, want.endTime)
	}
	if len(got.finishOrder) != len(want.finishOrder) {
		t.Fatalf("seed %d [%s]: %d finishes != %d", seed, name, len(got.finishOrder), len(want.finishOrder))
	}
	for i := range got.finishOrder {
		if got.finishOrder[i] != want.finishOrder[i] {
			t.Fatalf("seed %d [%s]: finish order %v != %v", seed, name, got.finishOrder, want.finishOrder)
		}
	}
	if len(got.failOrder) != len(want.failOrder) {
		t.Fatalf("seed %d [%s]: %d aborts != %d", seed, name, len(got.failOrder), len(want.failOrder))
	}
	for i := range got.failOrder {
		if got.failOrder[i] != want.failOrder[i] {
			t.Fatalf("seed %d [%s]: abort order %v != %v", seed, name, got.failOrder, want.failOrder)
		}
	}
	for id, ft := range got.finishTimes {
		if ft != want.finishTimes[id] {
			t.Errorf("seed %d [%s]: flow %d finished at %v != %v", seed, name, id, ft, want.finishTimes[id])
		}
	}
	for i := range got.rateSamples {
		if got.rateSamples[i] != want.rateSamples[i] {
			t.Errorf("seed %d [%s]: rate sample %d: %v != %v", seed, name, i, got.rateSamples[i], want.rateSamples[i])
		}
	}
	for i := range got.linkBytes {
		if got.linkBytes[i] != want.linkBytes[i] {
			t.Errorf("seed %d [%s]: link %d bytes %v != %v", seed, name, i, got.linkBytes[i], want.linkBytes[i])
		}
		if got.peakUtil[i] != want.peakUtil[i] {
			t.Errorf("seed %d [%s]: link %d peak util %v != %v", seed, name, i, got.peakUtil[i], want.peakUtil[i])
		}
	}
	for i := range got.stall {
		if got.stall[i] != want.stall[i] {
			t.Errorf("seed %d [%s]: flow %d stall %v != %v", seed, name, i, got.stall[i], want.stall[i])
		}
		if got.bindLink[i] != want.bindLink[i] {
			t.Errorf("seed %d [%s]: flow %d bind link %q != %q", seed, name, i, got.bindLink[i], want.bindLink[i])
		}
	}
}

// TestDifferentialShardedMultiDomain is the tentpole's property test:
// 50 seeded multi-group churn+fault scenarios — domain merges via
// bridge flows, partition resets, Degrade/Restore, failures — run on
// the sharded engine and on the reference oracle. Durations, orders,
// per-link bytes, telemetry and critpath blame must match the oracle
// exactly.
func TestDifferentialShardedMultiDomain(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		sc := makeShardScenario(seed)
		ref := sc.run(true)
		opt := sc.run(false)
		compareShardRecords(t, seed, "sharded vs reference", opt, ref)
		if opt.stats.FlowsFilled == 0 && len(sc.flowRoute) > 0 {
			t.Errorf("seed %d: engine filled no flows — scenario exercised nothing", seed)
		}
	}
}

// TestDomainLazySkip pins the tentpole's core property: churn inside
// one contention domain refills only that domain. Two disjoint
// contended link sets host two flows each; a third flow arriving on
// the first set must refill exactly that domain's three flows, not all
// five.
func TestDomainLazySkip(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode("a"), net.AddNode("b")
	l1 := net.AddLink(a, b, 100, 0, "l1")
	l2 := net.AddLink(a, b, 100, 0, "l2")
	for i := 0; i < 2; i++ {
		net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1e9})
		net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 1e9})
	}
	s.RunUntil(0)
	st := net.FillStats()
	if st.DomainsFilled != 2 || st.FlowsFilled != 4 {
		t.Fatalf("initial fill: %+v, want 2 domains / 4 flows", st)
	}
	s.At(1, func() {
		net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1e9})
	})
	s.RunUntil(2)
	st = net.FillStats()
	if st.DomainsFilled != 3 {
		t.Errorf("after l1 arrival: %d domains filled, want 3 (l2's domain untouched)", st.DomainsFilled)
	}
	if st.FlowsFilled != 7 {
		t.Errorf("after l1 arrival: %d flows filled, want 7 (4 + the dirty domain's 3)", st.FlowsFilled)
	}
	rates := net.LinkRates()
	if rates[l1] != 100 || rates[l2] != 100 {
		t.Errorf("link rates %v, want 100 each", rates)
	}
}

// TestDomainMergeAndReset checks partition maintenance: a bridge flow
// merges two singleton domains into one (so later churn anywhere in
// the merged span refills it as a unit), and draining all flows resets
// the partition so fresh flows land in fresh singleton domains again.
func TestDomainMergeAndReset(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode("a"), net.AddNode("b")
	l1 := net.AddLink(a, b, 100, 0, "l1")
	l2 := net.AddLink(a, b, 50, 0, "l2")
	f1 := net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1e9})
	f2 := net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 1e9})
	bridge := net.StartFlow(FlowSpec{Links: []LinkID{l1, l2}, Bytes: 1e9})
	s.RunUntil(0)
	st := net.FillStats()
	// One pass: the bridge unioned both links before the fill ran, so a
	// single (merged) domain with one exact component was filled.
	if st.FillPasses != 1 || st.DomainsFilled != 1 || st.ComponentsFilled != 1 || st.FlowsFilled != 3 {
		t.Fatalf("merged fill: %+v, want 1 pass / 1 domain / 1 component / 3 flows", st)
	}
	// Drain everything: the partition resets, so two new disjoint flows
	// form two fresh singleton domains (filled in one pass), even
	// though l1 and l2 were merged before.
	f1.Cancel()
	f2.Cancel()
	bridge.Cancel()
	s.RunUntil(1)
	s.At(2, func() {
		net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1e9})
		net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 1e9})
	})
	s.RunUntil(3)
	st = net.FillStats()
	if st.DomainsFilled != 4 {
		t.Errorf("after reset: %d domains filled cumulatively, want 4 (1 merged + 1 drain pass + 2 fresh)", st.DomainsFilled)
	}
	rates := net.LinkRates()
	if rates[l1] != 100 || rates[l2] != 50 {
		t.Errorf("post-reset rates %v, want l1=100, l2=50", rates)
	}
}

// TestDomainMergeStillExactComponents verifies the fill stays per
// *exact* component inside a coarse merged domain: after the bridge
// flow leaves, l1's and l2's flows are separate components again (the
// coarse domain still spans both links) and their rates match networks
// that never merged.
func TestDomainMergeStillExactComponents(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode("a"), net.AddNode("b")
	l1 := net.AddLink(a, b, 100, 0, "l1")
	l2 := net.AddLink(a, b, 60, 0, "l2")
	net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1e9})
	net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 1e9})
	bridge := net.StartFlow(FlowSpec{Links: []LinkID{l1, l2}, Bytes: 1e9})
	s.RunUntil(0)
	bridge.Cancel() // coarse domain keeps spanning l1+l2; components split
	s.RunUntil(1)
	st := net.FillStats()
	// Second pass refilled the one dirty coarse domain as two exact
	// components.
	if st.FillPasses != 2 || st.DomainsFilled != 2 || st.ComponentsFilled != 3 {
		t.Fatalf("post-split fill: %+v, want 2 passes / 2 domains / 3 components", st)
	}
	rates := net.LinkRates()
	if rates[l1] != 100 || rates[l2] != 60 {
		t.Errorf("post-split rates %v, want l1=100, l2=60", rates)
	}
}

// TestDegradeDirtiesOnlyItsDomain: a Degrade refills the degraded
// link's domain alone, and degrading a link no active route crosses
// refills nothing at all.
func TestDegradeDirtiesOnlyItsDomain(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode("a"), net.AddNode("b")
	l1 := net.AddLink(a, b, 100, 0, "l1")
	l2 := net.AddLink(a, b, 100, 0, "l2")
	idle := net.AddLink(a, b, 100, 0, "idle")
	f1 := net.StartFlow(FlowSpec{Links: []LinkID{l1}, Bytes: 1e9})
	net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 1e9})
	s.RunUntil(0)
	base := net.FillStats()
	s.At(1, func() { net.Link(l1).Degrade(0.5) })
	s.RunUntil(2)
	st := net.FillStats()
	if st.DomainsFilled != base.DomainsFilled+1 || st.FlowsFilled != base.FlowsFilled+1 {
		t.Errorf("degrade refilled %+v beyond %+v, want exactly 1 domain / 1 flow more", st, base)
	}
	if f1.Rate() != 50 {
		t.Errorf("degraded flow rate %v, want 50", f1.Rate())
	}
	s.At(3, func() { net.Link(idle).Degrade(0.5) })
	s.RunUntil(4)
	if got := net.FillStats(); got != st {
		t.Errorf("degrading an idle link changed fill work: %+v != %+v", got, st)
	}
}

// TestCrossDomainCompletionTie: flows in independent domains whose
// completions land on the same timestamp must finish in activation
// order on both engines — the calendar's cross-domain tie-break.
func TestCrossDomainCompletionTie(t *testing.T) {
	run := func(reference bool) []string {
		s := sim.NewScheduler()
		net := New(s)
		if reference {
			net.useReferenceEngine()
		}
		a, b := net.AddNode("a"), net.AddNode("b")
		var order []string
		for i, bw := range []float64{100, 50, 25, 200} {
			name := string(rune('A' + i))
			l := net.AddLink(a, b, bw, 0, name)
			net.StartFlow(FlowSpec{
				Links: []LinkID{l}, Bytes: bw * 3, // all finish at t=3
				Done: func(*Flow) { order = append(order, name) },
			})
		}
		s.RunUntil(10)
		return order
	}
	opt, ref := run(false), run(true)
	want := "ABCD"
	if len(opt) != 4 || len(ref) != 4 {
		t.Fatalf("completions: engine %v, reference %v", opt, ref)
	}
	for i := range opt {
		if opt[i] != ref[i] || opt[i] != string(want[i]) {
			t.Fatalf("tie order: engine %v, reference %v, want activation order %q", opt, ref, want)
		}
	}
}

// TestForceFullFillMatchesLazy: forcing a full fill over clean domains
// must be a pure no-op on every observable — same rates bitwise, and
// no completion re-arming (kept ETAs) — while still counting the work.
func TestForceFullFillMatchesLazy(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode("a"), net.AddNode("b")
	l1 := net.AddLink(a, b, 100, 0, "l1")
	l2 := net.AddLink(a, b, 70, 0, "l2")
	f1 := net.StartFlow(FlowSpec{Links: []LinkID{l1, l2}, Bytes: 1e9})
	f2 := net.StartFlow(FlowSpec{Links: []LinkID{l2}, Bytes: 1e9})
	s.RunUntil(1)
	r1, r2 := f1.Rate(), f2.Rate()
	fired := s.Fired()
	net.ForceFullFill()
	s.RunUntil(2)
	if f1.Rate() != r1 || f2.Rate() != r2 {
		t.Errorf("forced refill moved rates: (%v,%v) != (%v,%v)", f1.Rate(), f2.Rate(), r1, r2)
	}
	if got := net.FillStats(); got.FlowsFilled < 4 {
		t.Errorf("forced refill counted %d flow fills, want ≥ 4", got.FlowsFilled)
	}
	_ = fired
	if r1+r2 != 70 || r1 != 35 {
		t.Errorf("max-min rates (%v,%v), want (35,35)", r1, r2)
	}
}
