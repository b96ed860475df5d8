package netsim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

// Flows whose every link has infinite bandwidth are contention-free:
// progressive filling must freeze them at an infinite rate upfront
// (completing at pure latency) rather than iterating on them — and a
// mixed population must not let them distort the finite flows' shares.
func TestInfiniteLinkFlowsFreezeAtInf(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b, c := net.AddNode(), net.AddNode(), net.AddNode()
	inf1 := net.AddLink(a, b, math.Inf(1), 0, "inf1")
	inf2 := net.AddLink(b, c, math.Inf(1), 0, "inf2")
	fin := net.AddLink(a, c, 100, 0, "fin")

	free1 := net.StartFlow(FlowSpec{Links: []LinkID{inf1, inf2}, Bytes: 1e12, Latency: 0})
	free2 := net.StartFlow(FlowSpec{Links: []LinkID{inf2}, Bytes: 1e12, Latency: 0})
	bound1 := net.StartFlow(FlowSpec{Links: []LinkID{fin}, Bytes: 1e6, Latency: 0})
	bound2 := net.StartFlow(FlowSpec{Links: []LinkID{inf1, fin}, Bytes: 1e6, Latency: 0})

	// The filling pass runs as an event scheduled by the first
	// activation, which fires after this callback; nest one event deeper
	// to sample after it (and still before the instant completions).
	sampled := false
	s.After(0, func() {
		s.After(0, func() {
			sampled = true
			for i, f := range []*Flow{free1, free2} {
				if !math.IsInf(f.Rate(), 1) {
					t.Errorf("contention-free flow %d: rate %g, want +Inf", i, f.Rate())
				}
			}
			for i, f := range []*Flow{bound1, bound2} {
				if !approx(f.Rate(), 50) {
					t.Errorf("finite flow %d: rate %g, want fair share 50", i, f.Rate())
				}
			}
		})
	})
	s.Run()
	if !sampled {
		t.Fatal("sampling callback never ran")
	}
	if free1.State() != FlowDone || free1.Finished() != 0 {
		t.Fatalf("infinite-rate flow should complete instantly: state %v at %g",
			free1.State(), free1.Finished())
	}
}

// The max-min invariants over randomized topologies and flow sets:
// after one filling pass (1) flow conservation — the frozen rates
// crossing any finite link sum to at most its bandwidth plus epsilon —
// and (2) every flow is frozen either at +Inf (all-infinite path) or
// against at least one saturated bottleneck link.
func TestWaterfillInvariantsRandomized(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := sim.NewScheduler()
		net := New(s)

		nodes := make([]NodeID, 2+rng.Intn(8))
		for i := range nodes {
			nodes[i] = net.AddNode()
		}
		nLinks := 1 + rng.Intn(12)
		links := make([]LinkID, nLinks)
		for i := range links {
			bw := math.Inf(1)
			if rng.Float64() < 0.8 {
				bw = 1 + rng.Float64()*1e3
			}
			links[i] = net.AddLink(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], bw, 0, "l")
		}

		nFlows := 1 + rng.Intn(16)
		flows := make([]*Flow, nFlows)
		for i := range flows {
			// A route of 1-4 distinct random links (progressive filling
			// only sees link sets, not geometric paths).
			perm := rng.Perm(nLinks)
			route := make([]LinkID, 0, 4)
			for _, li := range perm[:1+rng.Intn(min(4, nLinks))] {
				route = append(route, links[li])
			}
			flows[i] = net.StartFlow(FlowSpec{Links: route, Bytes: 1e15, Latency: 0})
		}

		s.After(0, func() {
			s.After(0, sampleInvariants(t, seed, net, links, flows))
		})
		s.Run()
	}
}

// The same invariants must hold on the incremental path: after an
// initial filling pass, churn the active set — cancel a third of the
// flows, add new ones (some contention-free so the filling pass is
// skipped for them) — and re-check on the resulting state, which was
// produced by skip-fill bookkeeping and in-place event re-timing
// rather than a from-scratch engine.
func TestWaterfillInvariantsAfterChurn(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		s := sim.NewScheduler()
		net := New(s)

		nodes := make([]NodeID, 2+rng.Intn(8))
		for i := range nodes {
			nodes[i] = net.AddNode()
		}
		nLinks := 2 + rng.Intn(12)
		links := make([]LinkID, nLinks)
		for i := range links {
			bw := math.Inf(1)
			if rng.Float64() < 0.8 {
				bw = 1 + rng.Float64()*1e3
			}
			links[i] = net.AddLink(nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))], bw, 0, "l")
		}
		route := func() []LinkID {
			perm := rng.Perm(nLinks)
			r := make([]LinkID, 0, 4)
			for _, li := range perm[:1+rng.Intn(min(4, nLinks))] {
				r = append(r, links[li])
			}
			return r
		}

		// Contention-free flows complete at once and their Flow objects
		// are recycled, so each handle is kept with the ID it was started
		// under; a handle whose ID moved on is a completed flow.
		flows := make([]*Flow, 8+rng.Intn(8))
		ids := make([]uint64, len(flows))
		for i := range flows {
			flows[i] = net.StartFlow(FlowSpec{Links: route(), Bytes: 1e15, Latency: 0})
			ids[i] = flows[i].ID()
		}
		s.RunUntil(0)
		// Churn at t=1: cancel a third, start replacements.
		s.At(1, func() {
			for i, f := range flows {
				if i%3 == 0 && f.ID() == ids[i] {
					f.Cancel()
				}
			}
			for i := 0; i < 4; i++ {
				f := net.StartFlow(FlowSpec{Links: route(), Bytes: 1e15, Latency: 0})
				flows = append(flows, f)
				ids = append(ids, f.ID())
			}
		})
		s.At(2, func() {
			live := make([]*Flow, 0, len(flows))
			for i, f := range flows {
				if f.ID() == ids[i] && f.State() == FlowActive {
					live = append(live, f)
				}
			}
			s.After(0, sampleInvariants(t, seed, net, links, live))
		})
		s.RunUntil(3)
	}
}

// sampleInvariants returns the event callback checking the max-min
// invariants at the instant after the filling pass.
func sampleInvariants(t *testing.T, seed int64, net *Network, links []LinkID, flows []*Flow) func() {
	return func() {
		// (1) Flow conservation per finite link.
		for _, li := range links {
			l := net.Link(li)
			if math.IsInf(l.Bandwidth, 1) {
				continue
			}
			sum := 0.0
			for _, f := range flows {
				if f.State() != FlowActive {
					continue
				}
				for _, fl := range f.links {
					if fl == l {
						sum += f.Rate()
					}
				}
			}
			if sum > l.Bandwidth*(1+1e-6) {
				t.Errorf("seed %d: link oversubscribed: sum %g > bandwidth %g", seed, sum, l.Bandwidth)
			}
		}
		// (2) Every flow froze: +Inf iff its path is all-infinite,
		// otherwise pinned by a saturated bottleneck.
		for i, f := range flows {
			allInf := true
			for _, fl := range f.links {
				if !math.IsInf(fl.Bandwidth, 1) {
					allInf = false
				}
			}
			if allInf {
				if !math.IsInf(f.Rate(), 1) {
					t.Errorf("seed %d flow %d: all-infinite path but rate %g", seed, i, f.Rate())
				}
				continue
			}
			if f.Rate() <= 0 || math.IsInf(f.Rate(), 1) {
				t.Errorf("seed %d flow %d: unfrozen rate %g", seed, i, f.Rate())
				continue
			}
			bottleneck := false
			for _, fl := range f.links {
				if math.IsInf(fl.Bandwidth, 1) {
					continue
				}
				sum := 0.0
				for _, g := range flows {
					if g.State() != FlowActive {
						continue
					}
					for _, gl := range g.links {
						if gl == fl {
							sum += g.Rate()
						}
					}
				}
				if sum >= fl.Bandwidth*(1-1e-6) {
					bottleneck = true
					break
				}
			}
			if !bottleneck {
				t.Errorf("seed %d flow %d: rate %g has no saturated link on its path", seed, i, f.Rate())
			}
		}
		// End the run: the invariants are about the instantaneous
		// allocation, not the (enormous) transfers.
		for _, f := range flows {
			f.Cancel()
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
