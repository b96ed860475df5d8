package netsim

// Route pre-resolution: the schedule compiler (internal/collective)
// replays the same routes thousands of times per training run, and the
// per-StartFlow work of deduplicating the link list, filtering the
// finite-bandwidth subset and summing the cut-through latency is pure
// in the route and the network's static link table. PrepareRoute does
// that work once; a FlowSpec carrying the result skips it entirely.
//
// A PreparedRoute is immutable after construction and safe to share
// across any number of flows of the same network: flows only ever read
// their link slices (a reroute replaces them wholesale), so aliasing
// one backing array is free. It is NOT safe to carry across networks —
// it holds *Link pointers — and a cache holding prepared routes must
// key on Network.StateEpoch so fabric mutations invalidate it.

import "math"

// PreparedRoute is a route resolved once against a network: the
// deduplicated link set, its finite-bandwidth subset, and the summed
// cut-through latency of the raw route (duplicates included, exactly
// as StartFlow computes it for a negative FlowSpec.Latency).
type PreparedRoute struct {
	net     *Network
	id      uint32 // serial for the fill replay's keys; 0 once serials run out
	links   []*Link
	finite  []*Link
	latency float64
}

// PrepareRoute resolves a route for reuse. The returned value produces
// flows bit-identical to passing the same route through FlowSpec.Links:
// the deduplication, finite-subset filtering and latency summation are
// the very code StartFlow runs.
func (n *Network) PrepareRoute(route []LinkID) *PreparedRoute {
	links, finite := n.resolveRoute(route, nil, nil)
	lat := 0.0
	for _, id := range route {
		lat += n.links[id].Latency
	}
	p := &PreparedRoute{net: n, links: links, finite: finite, latency: lat}
	if n.routeSerial < math.MaxUint32 {
		n.routeSerial++
		p.id = n.routeSerial
	}
	return p
}

// Latency returns the prepared route's cut-through latency — the sum
// of link latencies over the raw route, duplicates included.
func (p *PreparedRoute) Latency() float64 { return p.latency }

// StateEpoch returns the network's fabric-state epoch: a counter
// bumped by every Link.Fail, Link.Degrade and Link.Restore (FailNode
// bumps once per link it fails). Schedule caches include it in their
// keys, so any fabric mutation retires exactly the entries planned
// against the old state — replay never resurrects a stale route.
func (n *Network) StateEpoch() uint64 { return n.stateEpoch }
