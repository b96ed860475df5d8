package netsim

import (
	"math"

	"github.com/wafernet/fred/internal/sim"
)

// EventKind names an engine event delivered to observers.
type EventKind int

// The engine events. A flow's Done or OnFail callback runs after its
// EvFlowDone or EvFlowAbort.
const (
	EvFlowStart   EventKind = iota // StartFlow admitted Flow
	EvFlowStage                    // Flow left stage Stage ("latency", "active", "paused"), entered at Start
	EvFlowDone                     // Flow delivered its last byte
	EvFlowCancel                   // Flow was canceled
	EvFlowAbort                    // a link failure on its route aborted Flow
	EvPass                         // a rate recompute finished; Util, Prev and Active are set
	EvLinkFail                     // Link failed
	EvLinkDegrade                  // Link was degraded to Factor of its healthy bandwidth
	EvLinkRestore                  // Link was restored to its healthy bandwidth
	EvRunEnd                       // the run is over (EndRun); Util is set
)

// Event is one engine event. Kind and Now are always set; the other
// fields only for the kinds whose comments name them. The slices belong
// to the engine: read them during Observe only.
type Event struct {
	Kind EventKind
	Now  sim.Time

	Flow  *Flow
	Stage string
	Start sim.Time

	Link   *Link
	Factor float64

	// Util is the per-link utilization (the flows' summed rate over the
	// link's bandwidth; 0 on contention-free links), indexed by LinkID,
	// as of this pass; Prev is the same vector as of the pass before.
	// Both cover every link. The engine computes them once per pass for
	// all observers.
	Util, Prev []float64
	// Active is the active-flow set in activation order. Nil entries
	// are holes left by departed flows; skip them.
	Active []*Flow
}

// Observer subscribes to a network's engine events (AddObserver).
// Observe runs synchronously inside the engine and must only read: it
// may not start, pause or cancel flows or schedule events, so an
// observed run simulates exactly like an unobserved one.
type Observer interface {
	Observe(ev Event)
}

// AddObserver subscribes o to the given kinds of engine event.
// Observers see each event in the order they were added. Attach them
// before the first flow starts.
func (n *Network) AddObserver(o Observer, kinds ...EventKind) {
	var mask uint32
	for _, k := range kinds {
		mask |= 1 << k
	}
	n.obs = append(n.obs, o)
	n.masks = append(n.masks, mask)
	n.want |= mask
}

// Observers returns the subscribed observers in the order they were
// added.
func (n *Network) Observers() []Observer { return n.obs }

// wants reports whether any observer subscribed to kind k. Every hot
// path checks it before building an event, so an unobserved network
// pays one branch.
func (n *Network) wants(k EventKind) bool { return n.want&(1<<k) != 0 }

// notify delivers ev to every observer subscribed to its kind.
func (n *Network) notify(ev Event) {
	bit := uint32(1) << ev.Kind
	for i, o := range n.obs {
		if n.masks[i]&bit != 0 {
			o.Observe(ev)
		}
	}
}

// EndRun ends the run for every observer: it settles the byte counters
// to the current time and sends EvRunEnd, which closes the observers'
// trailing intervals (a flight recorder's closing sample, the metrics'
// last utilization interval). Call it once the simulation is over,
// before reading observer output. Repeating it adds nothing.
func (n *Network) EndRun() {
	n.settle()
	if n.wants(EvRunEnd) {
		n.growUtil()
		n.notify(Event{Kind: EvRunEnd, Now: n.sched.Now(), Util: n.util})
	}
}

// growUtil extends both utilization vectors to cover every link; new
// links start at 0.
func (n *Network) growUtil() {
	for len(n.util) < len(n.links) {
		n.util = append(n.util, 0)
		n.prevUtil = append(n.prevUtil, 0)
	}
}

// observePass runs after every rate recomputation while an observer
// wants EvPass: it computes the per-link utilization vector once and
// hands it, with the previous pass's, to those observers. The per-link
// rate sums are maintained incrementally by the domain fills (a dirty
// domain zeroes and re-accumulates its own links' sums in activation
// order — the same order a full pass uses, so the floats match
// bit-for-bit); the reference engine rebuilds them from scratch first.
func (n *Network) observePass(now sim.Time) {
	n.ensureRateSum()
	rateSum := n.rateSum
	n.util, n.prevUtil = n.prevUtil, n.util
	n.growUtil()
	for _, l := range n.links {
		if !math.IsInf(l.Bandwidth, 1) {
			n.util[l.ID] = rateSum[l.ID] / l.Bandwidth
		}
	}
	n.notify(Event{Kind: EvPass, Now: now, Util: n.util, Prev: n.prevUtil, Active: n.active})
}

// LinkUtil reports the link's instantaneous utilization: the rate sum
// the last recompute left on it over its current bandwidth. ok is false
// for a contention-free link and for a link no recompute has covered
// yet. A pure read, for samplers that run between passes.
func (n *Network) LinkUtil(id LinkID) (u float64, ok bool) {
	l := n.links[id]
	if math.IsInf(l.Bandwidth, 1) || int(id) >= len(n.rateSum) {
		return 0, false
	}
	return n.rateSum[id] / l.Bandwidth, true
}
