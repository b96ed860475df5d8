package netsim

import (
	"fmt"
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

// Benchmarks for the waterfilling engine hot paths. The *Reference
// variants run the original cancel-everything map-based implementation
// (reference.go) on identical topologies, so a single run produces the
// before/after comparison recorded in BENCH_netsim.json:
//
//	go test -run '^$' -bench 'Recompute|FlowChurn' -benchmem ./internal/netsim

// contendedNet builds a 16-link network with nFlows long-lived flows,
// each crossing three links in a deterministic pattern, activated and
// rate-filled at t=0.
func contendedNet(tb testing.TB, e engine, nFlows int) (*sim.Scheduler, *Network) {
	s := sim.NewScheduler()
	net := e.newNet(s)
	routes := e.routes(net)
	a, b := net.AddNode(), net.AddNode()
	links := make([]LinkID, 16)
	for i := range links {
		links[i] = net.AddLink(a, b, 100+float64(i*7), 0, "l")
	}
	for i := 0; i < nFlows; i++ {
		net.StartFlow(routes.with(FlowSpec{Bytes: 1e15, Latency: 0},
			[]LinkID{links[i%16], links[(i+5)%16], links[(i+11)%16]}))
	}
	s.RunUntil(0)
	if net.ActiveFlows() != nFlows {
		tb.Fatalf("active = %d, want %d", net.ActiveFlows(), nFlows)
	}
	return s, net
}

// BenchmarkRecompute measures one full rate recomputation — settle,
// progressive filling over 128 contending flows, completion re-timing
// — in the steady state the training drivers spend most of their time
// in. The filling pass is forced each iteration; allocs/op must be 0.
func BenchmarkRecompute(b *testing.B) {
	_, net := contendedNet(b, engSharded, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForceFullFill()
	}
}

// BenchmarkRecomputeReference is the original engine on the identical
// scenario: fresh scratch maps and cancel-and-recreate completion
// events every pass.
func BenchmarkRecomputeReference(b *testing.B) {
	_, net := contendedNet(b, engReference, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.referenceRecompute()
	}
}

// flowChurn measures the full lifecycle of one short flow — start,
// activate, rate refill, completion, detach — against a backdrop of 64
// long-lived contending flows, the dominant event pattern of the
// collective schedules.
func flowChurn(b *testing.B, e engine) {
	s, net := contendedNet(b, e, 64)
	links := []LinkID{0, 7}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		done := false
		net.StartFlow(FlowSpec{
			Links: links, Bytes: 1000, Latency: 0,
			Done: func(*Flow) { done = true },
		})
		for !done && s.Step() {
		}
	}
}

func BenchmarkFlowChurn(b *testing.B)          { flowChurn(b, engSharded) }
func BenchmarkFlowChurnReference(b *testing.B) { flowChurn(b, engReference) }

// BenchmarkFillReplay is BenchmarkRecompute's network on prepared
// routes: after the first pass stores the fill, every forced pass
// replays it (replay.go) instead of waterfilling. allocs/op must be 0.
func BenchmarkFillReplay(b *testing.B) {
	_, net := contendedNet(b, engReplay, 128)
	net.ForceFullFill()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.ForceFullFill()
	}
}

// groupedNet builds `groups` disjoint copies of the contendedNet
// pattern — 16 links, flowsPer flows each crossing three of them — so
// the network partitions into exactly `groups` independent contention
// domains, the structure a hierarchical multi-wafer system produces by
// construction.
func groupedNet(tb testing.TB, groups, flowsPer int) (*sim.Scheduler, *Network, []LinkID) {
	s := sim.NewScheduler()
	net := New(s)
	a, b := net.AddNode(), net.AddNode()
	links := make([]LinkID, 16*groups)
	for i := range links {
		links[i] = net.AddLink(a, b, 100+float64(i%16*7), 0, "l")
	}
	for g := 0; g < groups; g++ {
		base := g * 16
		for i := 0; i < flowsPer; i++ {
			net.StartFlow(FlowSpec{
				Links: []LinkID{links[base+i%16], links[base+(i+5)%16], links[base+(i+11)%16]},
				Bytes: 1e15, Latency: 0,
			})
		}
	}
	s.RunUntil(0)
	if net.ActiveFlows() != groups*flowsPer {
		tb.Fatalf("active = %d, want %d", net.ActiveFlows(), groups*flowsPer)
	}
	return s, net, links
}

// BenchmarkDomainFill measures the sharded engine on multi-domain
// systems. dirty1 is the tentpole's payoff: localized churn (a
// Degrade/Restore cycle on one link) refills only that link's domain,
// so its cost must stay flat — and allocation-free — as the total
// system grows; a global engine's cost would grow linearly with
// groups. global forces every domain dirty for the full-system
// baseline. 32 flows per 16-link group throughout.
func BenchmarkDomainFill(b *testing.B) {
	for _, groups := range []int{1, 4, 16} {
		groups := groups
		b.Run(fmt.Sprintf("dirty1/groups=%d", groups), func(b *testing.B) {
			_, net, links := groupedNet(b, groups, 32)
			l := net.Link(links[0])
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					l.Degrade(0.5)
				} else {
					l.Restore()
				}
				net.recompute()
			}
		})
		b.Run(fmt.Sprintf("global/groups=%d", groups), func(b *testing.B) {
			_, net, _ := groupedNet(b, groups, 32)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.ForceFullFill()
			}
		})
	}
}
