package netsim

import (
	"fmt"
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

// Tests for the fill replay (replay.go): a replayed fill must leave
// every observable — rates, completion times and orders, link bytes,
// binding links and FillStats — exactly as the fill it stands in for.

// TestDifferentialFillReplay runs every seeded churn, shard and fault
// scenario on prepared routes twice, with fill replay and with it off,
// and requires bit-identical observables and FillStats; the replayed
// run must also match the reference engine. Each scenario family must
// actually replay somewhere, or the test proves nothing.
func TestDifferentialFillReplay(t *testing.T) {
	var churnHits, shardHits, faultHits uint64
	for seed := int64(0); seed < 50; seed++ {
		sc := makeScenario(seed)
		rep, plain := sc.run(engReplay), sc.run(engNoReplay)
		compareChurnRecords(t, seed, rep, plain)
		compareChurnRecords(t, seed, rep, sc.run(engReference))
		if rep.stats != plain.stats {
			t.Errorf("seed %d: churn fill stats %+v with replay, %+v without", seed, rep.stats, plain.stats)
		}
		if plain.replays != 0 {
			t.Fatalf("seed %d: %d replays with replay off", seed, plain.replays)
		}
		churnHits += rep.replays

		ss := makeShardScenario(seed)
		srep, splain := ss.run(engReplay), ss.run(engNoReplay)
		compareShardRecords(t, seed, "replay vs no replay", srep, splain)
		compareShardRecords(t, seed, "replay vs reference", srep, ss.run(engReference))
		if srep.stats != splain.stats {
			t.Errorf("seed %d: shard fill stats %+v with replay, %+v without", seed, srep.stats, splain.stats)
		}
		shardHits += srep.replays

		fs := makeFaultScenario(seed)
		tag := fmt.Sprintf("seed %d", seed)
		frep, fplain := fs.run(engReplay), fs.run(engNoReplay)
		compareFaultRecords(t, tag+" replay vs no replay", frep, fplain)
		compareFaultRecords(t, tag+" replay vs reference", frep, fs.run(engReference))
		if frep.stats != fplain.stats {
			t.Errorf("%s: fault fill stats %+v with replay, %+v without", tag, frep.stats, fplain.stats)
		}
		faultHits += frep.replays
		if t.Failed() {
			t.Fatalf("seed %d: replay diverged", seed)
		}
	}
	t.Logf("replays: churn %d, shard %d, fault %d", churnHits, shardHits, faultHits)
	if churnHits == 0 || shardHits == 0 || faultHits == 0 {
		t.Fatalf("replays: churn %d, shard %d, fault %d; every family must replay", churnHits, shardHits, faultHits)
	}
}

// replayRig is a three-link network whose rounds start two flows on
// prepared routes sharing l0 and drain them.
type replayRig struct {
	s          *sim.Scheduler
	net        *Network
	l0, l1, l2 LinkID
	p, q       *PreparedRoute
}

func newReplayRig(e engine) *replayRig {
	s := sim.NewScheduler()
	net := e.newNet(s)
	a, b := net.AddNode(), net.AddNode()
	r := &replayRig{s: s, net: net}
	r.l0 = net.AddLink(a, b, 100, 0, "l0")
	r.l1 = net.AddLink(a, b, 60, 0, "l1")
	r.l2 = net.AddLink(a, b, 80, 0, "l2")
	r.p = net.PrepareRoute([]LinkID{r.l0, r.l1})
	r.q = net.PrepareRoute([]LinkID{r.l0})
	return r
}

// round runs the two flows to completion and reports the domains it
// filled, the fills the replay served, and the rates at activation. A
// round fills three times: both flows, the survivor, and the emptied
// domain, which has nothing to replay.
func (r *replayRig) round() (filled, hits uint64, rates [2]float64) {
	filled0, hits0 := r.net.FillStats().DomainsFilled, r.net.replay.hits
	fa := r.net.StartFlow(FlowSpec{Prepared: r.p, Bytes: 600, Latency: 0})
	fb := r.net.StartFlow(FlowSpec{Prepared: r.q, Bytes: 900, Latency: 0})
	r.s.RunUntil(r.s.Now())
	rates = [2]float64{fa.Rate(), fb.Rate()}
	r.s.Run()
	return r.net.FillStats().DomainsFilled - filled0, r.net.replay.hits - hits0, rates
}

// TestFillReplayRefillsAfterFabricChange repeats one round. The second
// round replays every fill of the first. After Degrade, Restore or
// Fail — even of a link the round does not use — the first round
// refills, with the same prepared routes, and the round after it
// replays again.
func TestFillReplayRefillsAfterFabricChange(t *testing.T) {
	r := newReplayRig(engReplay)
	filled, hits, first := r.round()
	if filled == 0 || hits != 0 {
		t.Fatalf("first round: %d fills, %d replays; want fills and no replay", filled, hits)
	}
	check := func(name string, wantRates [2]float64) {
		t.Helper()
		filled, hits, rates := r.round()
		if hits != 0 {
			t.Errorf("%s: %d of %d fills replayed, want 0", name, hits, filled)
		}
		if rates != wantRates {
			t.Errorf("%s: rates %v, want %v", name, rates, wantRates)
		}
		filled, hits, again := r.round()
		if filled != 3 || hits != 2 {
			t.Errorf("%s, repeated: %d of %d fills replayed, want 2 of 3", name, hits, filled)
		}
		if again != rates {
			t.Errorf("%s, repeated: rates %v, want %v", name, again, rates)
		}
	}
	filled, hits, rates := r.round()
	if filled != 3 || hits != 2 || rates != first {
		t.Fatalf("second round: %d of %d fills replayed at rates %v; want 2 of 3 at %v", hits, filled, rates, first)
	}
	r.net.Link(r.l1).Degrade(0.5)
	check("after Degrade", [2]float64{30, 70})
	r.net.Link(r.l1).Restore()
	check("after Restore", first)
	r.net.Link(r.l2).Fail()
	check("after Fail", first)
}

// TestFillReplayUnpreparedFlowRefills: a flow started on link IDs
// rides no prepared route, so every fill of a domain holding it
// recomputes. With that flow canceled, the same churn replays: each
// short flow's fill, but not the emptied domain's.
func TestFillReplayUnpreparedFlowRefills(t *testing.T) {
	r := newReplayRig(engReplay)
	long := r.net.StartFlow(FlowSpec{Links: []LinkID{r.l1}, Bytes: 1e9, Latency: 0})
	r.s.RunUntil(1)
	if long.State() != FlowActive || long.routeID != 0 {
		t.Fatalf("long flow: state %v, route serial %d; want active on serial 0", long.State(), long.routeID)
	}
	churn := func() (filled, hits uint64) {
		filled0, hits0 := r.net.FillStats().DomainsFilled, r.net.replay.hits
		for i := 0; i < 3; i++ {
			done := false
			r.net.StartFlow(FlowSpec{Prepared: r.p, Bytes: 50, Latency: 0, Done: func(*Flow) { done = true }})
			for !done && r.s.Step() {
			}
		}
		return r.net.FillStats().DomainsFilled - filled0, r.net.replay.hits - hits0
	}
	if filled, hits := churn(); filled == 0 || hits != 0 {
		t.Fatalf("with the unprepared flow: %d of %d fills replayed, want none of some", hits, filled)
	}
	long.Cancel()
	churn()
	if filled, hits := churn(); filled != 6 || hits != 3 {
		t.Fatalf("without it: %d of %d fills replayed, want 3 of 6", hits, filled)
	}
}

// TestFillReplaySteadyStateZeroAlloc: once a configuration is stored,
// replaying it — settle, replay, completion re-timing — allocates
// nothing.
func TestFillReplaySteadyStateZeroAlloc(t *testing.T) {
	_, net := contendedNet(t, engReplay, 128)
	net.ForceFullFill()
	hits := net.replay.hits
	allocs := testing.AllocsPerRun(100, net.ForceFullFill)
	if allocs != 0 {
		t.Fatalf("steady-state replay allocates %v objects/op, want 0", allocs)
	}
	if net.replay.hits <= hits {
		t.Fatal("ForceFullFill did not replay the stored fill")
	}
}
