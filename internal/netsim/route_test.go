package netsim

import (
	"math"
	"math/rand"
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

// oracleRoute is the straightforward dedup resolveRoute must match: a
// map of links already taken, first occurrence kept, then the
// finite-bandwidth subset in the same order.
func oracleRoute(n *Network, route []LinkID) (links, finite []*Link) {
	seen := make(map[LinkID]bool)
	for _, id := range route {
		if !seen[id] {
			seen[id] = true
			links = append(links, n.links[id])
		}
	}
	for _, l := range links {
		if !math.IsInf(l.Bandwidth, 1) {
			finite = append(finite, l)
		}
	}
	return links, finite
}

// sameBacking reports whether two non-empty slices start at the same
// array element.
func sameBacking(a, b []*Link) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:1][0] == &b[:1][0]
}

// TestResolveRouteMatchesOracle checks resolveRoute and PrepareRoute
// against oracleRoute on random routes of 0–40 entries drawn from a
// small link pool (so most long routes repeat links), over all-finite,
// all-infinite and mixed pools, with fresh and reused buffers. Beyond
// the link order and the finite subset it checks the aliasing rules
// the flow path relies on: the finite subset aliases the links when
// every link is finite and is nil when none is, and a buffer is reused
// exactly when its capacity suffices, else the slice is sized exactly.
func TestResolveRouteMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, mix := range []string{"finite", "infinite", "mixed"} {
		s := sim.NewScheduler()
		net := New(s)
		a, b := net.AddNode(), net.AddNode()
		pool := make([]LinkID, 12)
		for i := range pool {
			bw := 100 + float64(i)
			if mix == "infinite" || (mix == "mixed" && i%3 == 0) {
				bw = math.Inf(1)
			}
			pool[i] = net.AddLink(a, b, bw, float64(i)*1e-9, "l")
		}
		var buf, finiteBuf []*Link
		for trial := 0; trial < 400; trial++ {
			route := make([]LinkID, rng.Intn(41))
			for i := range route {
				route[i] = pool[rng.Intn(len(pool))]
			}
			wantLinks, wantFinite := oracleRoute(net, route)
			if trial%2 == 0 {
				// Half the trials resolve into fresh storage.
				buf, finiteBuf = nil, nil
			}
			links, finite := net.resolveRoute(route, buf, finiteBuf)
			if len(links) != len(wantLinks) {
				t.Fatalf("%s trial %d: %d links, want %d (route %v)", mix, trial, len(links), len(wantLinks), route)
			}
			for i := range links {
				if links[i] != wantLinks[i] {
					t.Fatalf("%s trial %d: link %d is %d, want %d", mix, trial, i, links[i].ID, wantLinks[i].ID)
				}
			}
			if len(finite) != len(wantFinite) {
				t.Fatalf("%s trial %d: %d finite links, want %d", mix, trial, len(finite), len(wantFinite))
			}
			for i := range finite {
				if finite[i] != wantFinite[i] {
					t.Fatalf("%s trial %d: finite link %d is %d, want %d", mix, trial, i, finite[i].ID, wantFinite[i].ID)
				}
			}
			switch {
			case len(wantFinite) == len(wantLinks):
				if len(links) > 0 && !sameBacking(finite, links) {
					t.Fatalf("%s trial %d: all-finite route's subset does not alias its links", mix, trial)
				}
			case len(wantFinite) == 0:
				if finite != nil {
					t.Fatalf("%s trial %d: all-infinite route has a non-nil finite subset", mix, trial)
				}
			default:
				if sameBacking(finite, links) {
					t.Fatalf("%s trial %d: mixed route's finite subset aliases its links", mix, trial)
				}
				if cap(finiteBuf) >= len(finite) != sameBacking(finite, finiteBuf) {
					t.Fatalf("%s trial %d: finite buffer of capacity %d reused=%v for %d links",
						mix, trial, cap(finiteBuf), sameBacking(finite, finiteBuf), len(finite))
				}
				if cap(finiteBuf) < len(finite) && cap(finite) != len(finite) {
					t.Fatalf("%s trial %d: fresh finite subset has capacity %d, want %d", mix, trial, cap(finite), len(finite))
				}
			}
			if len(links) > 0 {
				if cap(buf) >= len(links) != sameBacking(links, buf) {
					t.Fatalf("%s trial %d: buffer of capacity %d reused=%v for %d links",
						mix, trial, cap(buf), sameBacking(links, buf), len(links))
				}
				if cap(buf) < len(links) && cap(links) != len(links) {
					t.Fatalf("%s trial %d: fresh links have capacity %d, want %d", mix, trial, cap(links), len(links))
				}
			}
			// Reuse this trial's storage next time, as buildRoute does.
			buf = links[:0]
			if len(finite) > 0 && len(finite) < len(links) {
				finiteBuf = finite[:0]
			}

			p := net.PrepareRoute(route)
			if len(p.links) != len(wantLinks) || len(p.finite) != len(wantFinite) {
				t.Fatalf("%s trial %d: prepared %d/%d links, want %d/%d",
					mix, trial, len(p.links), len(p.finite), len(wantLinks), len(wantFinite))
			}
			for i := range p.links {
				if p.links[i] != wantLinks[i] {
					t.Fatalf("%s trial %d: prepared link %d is %d, want %d", mix, trial, i, p.links[i].ID, wantLinks[i].ID)
				}
			}
			for i := range p.finite {
				if p.finite[i] != wantFinite[i] {
					t.Fatalf("%s trial %d: prepared finite link %d differs", mix, trial, i)
				}
			}
			lat := 0.0
			for _, id := range route {
				lat += net.links[id].Latency
			}
			if p.Latency() != lat || len(p.links) != len(wantLinks) {
				t.Fatalf("%s trial %d: prepared latency %g hops %d, want %g and %d",
					mix, trial, p.Latency(), len(p.links), lat, len(wantLinks))
			}
		}
	}
}
