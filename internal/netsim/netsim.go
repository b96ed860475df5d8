// Package netsim is a flow-level, discrete-event network simulator.
//
// The network is a set of nodes joined by directed links, each with a
// bandwidth (bytes/second) and a latency (seconds). Traffic is modelled
// as flows: a flow occupies every link of its route — a path for
// unicast, a tree for multicast or in-network reduction — at a single
// rate. Active flows share link bandwidth max-min fairly, computed by
// progressive filling, exactly the model used by flow-level backends of
// distributed-training simulators such as ASTRA-SIM's analytical mode.
//
// Rates are recomputed whenever the set of active flows changes; flow
// completions are scheduled on the shared sim.Scheduler, so network
// activity interleaves deterministically with compute and I/O events
// from other simulators.
//
// The rate engine is incremental, sharded and allocation-free in
// steady state: finite links partition into contention domains (a
// union-find over active flows' routes, maintained incrementally —
// see domain.go), flow churn dirties only its own domain, and a
// recompute refills dirty domains alone — per exact connected
// component, over epoch-stamped scratch state embedded in the links
// (no per-recompute maps). Completions sit on a calendar drained by
// a single proxy scheduler event, re-armed only for flows whose rate
// actually changed. See DESIGN.md ("Sharded rate engine") and
// reference.go for the straightforward implementation the engine is
// differentially tested against.
//
// The per-flow path reuses storage the network owns. A *Flow handle
// is valid from StartFlow until its Done callback returns; the network
// may then recycle the Flow object, with its route capacity and its
// embedded latency event, for a later StartFlow. Read what a flow
// reports (Finished, ContentionStall, BindLinkName) inside Done.
// Canceled and failed flows are never recycled. Every StartFlow
// assigns a fresh ID, so the ID doubles as the handle's generation
// stamp: a holder that keeps (handle, ID) pairs — as collective.Op
// does — skips handles whose ID moved on (see Flow). The partition
// union-finds link their parents by link index, not pointer, and the
// scheduler's queue holds pointer-free entries, so the hot loops carry
// no GC write barrier (DESIGN.md, "Allocation discipline").
//
// Observation is one subscriber list (observer.go). Tracing, metrics,
// link statistics and the flight recorder live in the packages that
// read them and subscribe to the engine's events: flow stage changes
// and ends, reroutes and aborts, link faults, the end of a run
// (EndRun), and the pass after each rate recompute, which hands every
// observer the per-link utilization vector computed once for all of
// them. Each hot path checks once whether any observer wants its
// event, so an unobserved network pays nothing else. Only the
// critical-path recorder (SetCritPath) stays in the engine: flows
// carry its causal parents.
package netsim

import (
	"fmt"
	"math"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/sim"
)

// NodeID identifies a node within a Network.
type NodeID int

// LinkID identifies a directed link within a Network.
type LinkID int

// rateEpsilon is the slack used when deciding that a link is saturated
// or that a flow has drained, guarding against float64 round-off.
const rateEpsilon = 1e-9

// Link is a directed channel between two nodes.
type Link struct {
	ID        LinkID
	Src, Dst  NodeID
	Bandwidth float64 // bytes per second; math.Inf(1) for contention-free hops
	Latency   float64 // seconds per traversal
	Name      string

	net       *Network
	bytesDone float64 // cumulative bytes carried, for utilisation reports
	// baseBW remembers the healthy bandwidth across Degrade/Restore
	// (see faults.go).
	baseBW float64
	// routeSeen is resolveRoute's dedup stamp, valid while it matches
	// the network's routeEpoch.
	routeSeen uint64

	// Progressive-filling scratch, valid only while fillEpoch matches
	// the network's current pass. Embedding it here replaces the
	// per-recompute map[*Link]*linkState allocation.
	fillEpoch uint64
	residual  float64
	unfrozen  int

	// Contention-domain partition state (domain.go), valid only while
	// domVersion matches the network's partition version; the whole
	// partition resets in O(1) by bumping that version. Roots
	// additionally carry the domain's dirty flag, dedupe stamp, link
	// list tail and flow membership list.
	domVersion uint64
	domParent  int32 // parent's link index (the link's own ID at a root)
	domSize    int32
	domDirty   bool
	// failed is fault state (see faults.go): a failed link admits no
	// flows. It sits beside domDirty to share its padding.
	failed      bool
	domSeen     uint64
	domNext     *Link // next link in this domain's link list
	domLinkHead *Link
	domLinkTail *Link
	domFlowHead *Flow
	domFlowTail *Flow

	// Exact-component scratch for one domain-fill pass, valid only
	// while compEpoch (compSeen for the flow list) matches the
	// network's fill epoch. Only ever touched by the worker filling
	// this link's domain, so parallel domain fills never race on it.
	compEpoch  uint64
	compSeen   uint64
	compParent int32 // parent's link index, like domParent
	compRank   int32
	compHead   *Flow
	compTail   *Flow
}

// BytesCarried reports the cumulative bytes this link has transferred,
// settled to the current simulated time.
func (l *Link) BytesCarried() float64 {
	l.net.settle()
	return l.bytesDone
}

// FlowState describes where a Flow is in its lifecycle.
type FlowState int

const (
	// FlowLatency means the flow is in its initial latency stage and
	// does not yet occupy link bandwidth.
	FlowLatency FlowState = iota
	// FlowActive means the flow is transferring and occupies its links.
	FlowActive
	// FlowPaused means the flow has been preempted; it holds no
	// bandwidth until resumed.
	FlowPaused
	// FlowDone means the flow completed (or was canceled).
	FlowDone
	// FlowFailed means a link failure on the flow's route aborted it.
	// Its Done callback never ran; OnFail did.
	FlowFailed
)

func (s FlowState) String() string {
	switch s {
	case FlowLatency:
		return "latency"
	case FlowActive:
		return "active"
	case FlowPaused:
		return "paused"
	case FlowDone:
		return "done"
	case FlowFailed:
		return "failed"
	}
	return fmt.Sprintf("FlowState(%d)", int(s))
}

// FlowSpec describes a transfer to start.
type FlowSpec struct {
	// Links is the set of links the flow occupies at a single rate. For
	// a unicast this is a path; for a multicast/reduction tree it is
	// every edge of the tree (a pipelined tree moves data on all edges
	// at the stream rate simultaneously).
	Links []LinkID
	// Bytes is the transfer size.
	Bytes float64
	// Latency overrides the route latency when ≥ 0; when negative the
	// sum of link latencies is used (cut-through: paid once).
	Latency float64
	// Done is called when the final byte is delivered. It may start new
	// flows or schedule events.
	Done func(*Flow)
	// OnFail is called when a link failure on the flow's route aborts
	// it (its Done callback never runs). It may start new flows.
	OnFail func(*Flow)
	// Prepared, when non-nil, supplies the route pre-resolved by
	// PrepareRoute: StartFlow skips deduplication and latency summation
	// and adopts the prepared link slices read-only. Links is ignored.
	// The prepared route must belong to this network and to the current
	// fabric-state epoch (callers key caches on StateEpoch).
	Prepared *PreparedRoute
	// Label tags the flow for debugging and accounting.
	Label string
	// CritParent, when non-zero and critpath recording is enabled
	// (SetCritPath), links the flow's DAG node to the collective-op node
	// that spawned it (an expand edge).
	CritParent critpath.NodeID
}

// Flow is an in-flight transfer.
//
// A *Flow handle is valid from StartFlow until its Done callback
// returns. After that the network may recycle the Flow object for a
// later StartFlow, which gives it a fresh ID: the ID is the handle's
// generation stamp. A holder that keeps a handle past Done records the
// ID at start and compares it: while ID() still returns it, the handle
// names the same finished flow (its accessors report that flow, and
// Pause, Resume and Cancel are no-ops); once it differs, the object
// belongs to another transfer. Read what is needed (Finished,
// ContentionStall, ...) inside Done. Canceled and failed flows are
// never recycled.
type Flow struct {
	net   *Network
	id    uint64
	links []*Link
	// finiteLinks is the finite-bandwidth subset of links, in route
	// order; it aliases links when every link is finite. Progressive
	// filling only ever visits finite links, so the subset is filtered
	// once at StartFlow instead of per pass.
	finiteLinks []*Link
	// ownLinks and ownFinite keep the capacity of the slices this Flow
	// object resolved routes into (never a PreparedRoute's), so a
	// recycled flow resolves its next route without allocating.
	ownLinks  []*Link
	ownFinite []*Link
	label     string
	latency   float64
	state     FlowState
	total     float64
	remaining float64
	rate      float64
	started   sim.Time
	finished  sim.Time
	done      func(*Flow)
	// complete is the flow's per-event completion handle, used only by
	// the reference engine (the sharded engine times completions on the
	// calendar below instead); detach cancels it.
	complete *sim.Event
	// latEvent times the latency stage. It is embedded and bound once
	// per Flow object to activate.
	latEvent   sim.Event
	activeIdx  int    // index in net.active; -1 while not active
	fillFrozen bool   // progressive-filling scratch
	actSeq     uint64 // activation sequence (assigned per activate)
	// routeID is the serial of the PreparedRoute the flow rides, 0 for
	// a route resolved from link IDs; bindIdx is the index in
	// finiteLinks of the link that froze it in its last fill, -1 if
	// none did. Both feed the fill replay (replay.go).
	routeID uint32
	bindIdx int32
	// Contention-domain membership (domain.go): doubly linked through
	// the owning domain root's flow list while active with finite links.
	domPrev *Flow
	domNext *Flow
	inDom   bool
	// compNext threads the flow into its exact component's list during
	// one domain-fill pass (scratch, valid within the pass only).
	compNext *Flow
	// Completion-calendar state: the armed ETA, the rate it was derived
	// from (rates are compared bitwise; an unchanged rate keeps the
	// armed ETA), the arming pass and the heap slot (-1 while absent).
	eta        sim.Time
	etaRate    float64
	etaPass    uint64
	etaValid   bool
	calIdx     int
	stageStart sim.Time // start of the current lifecycle stage (EvFlowStage)
	onFail     func(*Flow)

	// Critpath bookkeeping, only touched while the network has a
	// recorder (SetCritPath): stall is the exact contention integral
	// ∫(1 − rate/solo)dt over the flow's active life, bindLink the last
	// link that froze the flow in the waterfiller's bottleneck ordering.
	stall      float64
	bindLink   *Link
	critParent critpath.NodeID
}

// ID returns the flow's network-unique sequence number (assigned in
// StartFlow order). It doubles as the handle's generation stamp: a
// recycled Flow object carries a new ID.
func (f *Flow) ID() uint64 { return f.id }

// State returns the flow's lifecycle state.
func (f *Flow) State() FlowState { return f.state }

// Remaining returns the bytes not yet transferred (settled to the
// current simulated time).
func (f *Flow) Remaining() float64 {
	if f.state == FlowActive {
		f.net.settle()
	}
	return f.remaining
}

// Rate returns the flow's current max-min fair rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Label returns the flow's tag.
func (f *Flow) Label() string { return f.label }

// Bytes returns the flow's transfer size.
func (f *Flow) Bytes() float64 { return f.total }

// Started returns the time the flow was started.
func (f *Flow) Started() sim.Time { return f.started }

// Finished returns the completion time; meaningful once State is
// FlowDone.
func (f *Flow) Finished() sim.Time { return f.finished }

// ContentionStall returns the flow's exact contention integral
// ∫(1 − rate/solo)dt over its active life so far, where solo is the
// bandwidth of its narrowest link — the time the flow lost to max-min
// fair sharing. Only accumulated while critpath recording is enabled
// (SetCritPath); zero otherwise.
func (f *Flow) ContentionStall() float64 { return f.stall }

// BindLinkName names the saturated link that last froze this flow in
// the progressive-filling bottleneck ordering — its binding
// constraint. Empty when the flow was never frozen by a saturated link
// (contention-free) or critpath recording is disabled.
func (f *Flow) BindLinkName() string {
	if f.bindLink == nil {
		return ""
	}
	return f.bindLink.Name
}

// Network is a collection of nodes and links carrying flows.
type Network struct {
	sched *sim.Scheduler
	nodes int
	links []*Link
	// linkChunk is the unused tail of the chunk AddLink carves Links
	// from: one allocation per chunk instead of one per link.
	linkChunk []Link

	// active is kept as an ordered slice (activation order) rather than
	// a set: every settlement and rate-recomputation pass iterates it,
	// and a deterministic order makes float accumulation, completion-
	// event tie-breaking and trace emission reproducible bit-for-bit.
	// Each flow tracks its slot in activeIdx; removal leaves a nil hole
	// there (every iteration skips holes), and once holes outnumber
	// live flows the slice is compacted in order, so detach is O(1)
	// amortized and the live order never changes. activeHoles counts
	// the holes.
	active      []*Flow
	activeHoles int
	lastSettle  sim.Time
	dirty       bool
	dirtyEvent  *sim.Event // single re-armed recompute trigger

	// recomputeFn dispatches markDirty's recomputation: the incremental
	// engine by default, referenceRecompute under the differential-test
	// hook (see reference.go).
	recomputeFn func()

	// Contention-domain partition (domain.go): flow churn on finite
	// links dirties only the affected domain, and a recompute fills
	// dirty domains alone. Contention-free flows (all links infinite)
	// instead queue on freePending and are frozen at +Inf without a
	// filling pass. partVersion stamps link partition state (bumped to
	// reset the partition in O(1) whenever partActive — active flows
	// with finite links — drains to zero), dirtyRoots queues dirty
	// domain roots, and seenEpoch dedupes roots during collection.
	partVersion uint64
	partActive  int
	actSeqNext  uint64
	dirtyRoots  []*Link
	seenEpoch   uint64
	freePending []*Flow

	// Dirty-domain work list of the in-flight recompute, and the
	// reusable fill scratch.
	procRoots   []*Link
	fillScratch fillScratch
	stats       FillStats
	// replay stores past domain fills for reuse (replay.go), and
	// routeSerial numbers prepared routes for its keys.
	replay      fillReplay
	routeSerial uint32

	// Completion calendar (domain.go): active flows' armed completions
	// in an indexed min-heap ordered by (eta, arming pass, activation
	// seq), drained by the single proxy scheduler event. armPass counts
	// recomputes for the calendar key.
	cal     []*Flow
	proxy   *sim.Event
	armPass uint64

	// Reusable scratch (the allocation-free core): fillEpoch stamps
	// per-link scratch validity, rateSum holds the per-link flow-rate
	// sums, maintained by domain fills while an observer is attached
	// (zeroed and re-accumulated for a dirty domain's links only) and
	// read by observePass and LinkUtil, which only observers call.
	fillEpoch uint64
	rateSum   []float64

	flowSeq uint64
	// routeEpoch stamps Link.routeSeen, one fresh value per dedup pass.
	routeEpoch uint64

	// obs is the subscriber list (observer.go), masks the event kinds
	// each subscribed to and want their union; util and prevUtil are
	// the per-link utilization vectors of the last two passes, computed
	// only while an observer wants EvPass.
	obs            []Observer
	masks          []uint32
	want           uint32
	util, prevUtil []float64

	// Fault bookkeeping (faults.go): a reused scratch slice for
	// collecting the flows crossing a failing link. stateEpoch counts
	// fabric mutations (Fail/Degrade/Restore); schedule caches key on
	// it so stale routes are never replayed (see StateEpoch).
	failScratch []*Flow
	stateEpoch  uint64

	// freeFlows holds finished Flow objects for StartFlow to reuse;
	// bounded by the peak number of concurrently live flows.
	freeFlows []*Flow

	// crit, when non-nil (SetCritPath), records every flow's causal
	// node, contention stall and binding link into the critpath DAG.
	crit *critpath.Recorder
}

// New creates an empty network driven by the given scheduler.
func New(s *sim.Scheduler) *Network {
	n := &Network{sched: s, partVersion: 1}
	n.recomputeFn = n.recompute
	if referenceEverywhere {
		n.useReferenceEngine()
	}
	return n
}

// Scheduler returns the scheduler driving this network.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// SetCritPath attaches a causal critical-path recorder: every finished
// flow records a DAG node carrying its exact blame decomposition
// (serialized / contention / fault-recovery), the waterfiller notes
// each flow's binding link, and the scheduler tracks event causality
// depth. A nil recorder (the default) disables all of it; the hot
// paths then pay only nil checks — the zero-cost discipline of
// trace.Tracer, guarded by the allocation gates.
func (n *Network) SetCritPath(rec *critpath.Recorder) {
	n.crit = rec
	if rec != nil {
		n.sched.EnableCausalTracking()
	}
}

// CritPath returns the attached critpath recorder, or nil.
func (n *Network) CritPath() *critpath.Recorder { return n.crit }

// AddNode registers a node and returns its ID.
func (n *Network) AddNode() NodeID {
	n.nodes++
	return NodeID(n.nodes - 1)
}

// NumLinks returns the number of registered links.
func (n *Network) NumLinks() int { return len(n.links) }

// AddLink registers a directed link and returns its ID. Bandwidth must
// be positive (use math.Inf(1) for contention-free hops).
func (n *Network) AddLink(src, dst NodeID, bandwidth, latency float64, name string) LinkID {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("netsim: link %q bandwidth %g must be positive", name, bandwidth))
	}
	if latency < 0 {
		panic(fmt.Sprintf("netsim: link %q latency %g must be non-negative", name, latency))
	}
	if len(n.linkChunk) == 0 {
		// Chunks grow with the network, from 16 links up to 256.
		n.linkChunk = make([]Link, min(256, max(16, len(n.links))))
	}
	// The chunk slot is zeroed, so setting the few construction fields
	// in place spares copying all 224 bytes of a Link into it.
	l := &n.linkChunk[0]
	n.linkChunk = n.linkChunk[1:]
	l.ID = LinkID(len(n.links))
	l.Src, l.Dst = src, dst
	l.Bandwidth, l.Latency = bandwidth, latency
	l.Name = name
	l.net = n
	n.links = append(n.links, l)
	return l.ID
}

// Link returns the link with the given ID.
func (n *Network) Link(id LinkID) *Link { return n.links[id] }

// ActiveFlows returns the number of flows currently holding bandwidth.
func (n *Network) ActiveFlows() int { return len(n.active) - n.activeHoles }

// StartFlow begins a transfer. The flow first waits out its route
// latency, then occupies its links until Bytes have drained at the
// max-min fair rate. Zero-byte flows complete after the latency alone
// (they model pure control messages).
func (n *Network) StartFlow(spec FlowSpec) *Flow {
	if spec.Bytes < 0 {
		panic(fmt.Sprintf("netsim: flow %q negative bytes %g", spec.Label, spec.Bytes))
	}
	f := n.newFlow()
	f.id = n.flowSeq
	f.label = spec.Label
	f.total = spec.Bytes
	f.remaining = spec.Bytes
	f.done = spec.Done
	f.onFail = spec.OnFail
	f.started = n.sched.Now()
	f.stageStart = f.started
	f.state = FlowLatency
	f.critParent = spec.CritParent
	n.flowSeq++
	lat := spec.Latency
	if p := spec.Prepared; p != nil {
		if p.net != n {
			panic(fmt.Sprintf("netsim: flow %q uses a PreparedRoute from a different network", spec.Label))
		}
		if lat < 0 {
			lat = p.latency
		}
		f.latency = lat
		f.links = p.links
		f.finiteLinks = p.finite
		f.routeID = p.id
	} else {
		if lat < 0 {
			lat = 0
			for _, id := range spec.Links {
				lat += n.links[id].Latency
			}
		}
		f.latency = lat
		n.buildRoute(f, spec.Links)
	}
	n.sched.Reschedule(&f.latEvent, n.sched.Now()+lat)
	if n.wants(EvFlowStart) {
		n.notify(Event{Kind: EvFlowStart, Now: f.started, Flow: f})
	}
	return f
}

// newFlow returns a recycled Flow object reset to zero, or a new one,
// with its latency event bound. Only the retained route capacity and
// the bound event survive a reset; activeIdx and calIdx start at -1.
func (n *Network) newFlow() *Flow {
	if k := len(n.freeFlows); k > 0 {
		f := n.freeFlows[k-1]
		n.freeFlows[k-1] = nil
		n.freeFlows = n.freeFlows[:k-1]
		ev, ownLinks, ownFinite := f.latEvent, f.ownLinks[:0], f.ownFinite[:0]
		*f = Flow{net: n, activeIdx: -1, calIdx: -1,
			latEvent: ev, ownLinks: ownLinks, ownFinite: ownFinite}
		return f
	}
	f := &Flow{net: n, activeIdx: -1, calIdx: -1}
	f.latEvent.Bind(f.activate)
	return f
}

// release queues a completed flow for reuse once its Done callback
// returned. It drops the flow's callbacks, so a queued flow pins
// nothing of its owner; newFlow resets the rest on reuse.
func (n *Network) release(f *Flow) {
	f.done, f.onFail = nil, nil
	n.freeFlows = append(n.freeFlows, f)
}

// buildRoute resolves the route into the flow's link slices, reusing
// the capacity the Flow object resolved into before.
func (n *Network) buildRoute(f *Flow, route []LinkID) {
	f.routeID = 0
	f.links, f.finiteLinks = n.resolveRoute(route, f.ownLinks, f.ownFinite)
	f.ownLinks = f.links[:0]
	if len(f.finiteLinks) > 0 && len(f.finiteLinks) < len(f.links) {
		// A separate finite subset (it aliases links when every link is
		// finite, and is nil when none is).
		f.ownFinite = f.finiteLinks[:0]
	}
}

// reuseLinks returns buf emptied when it can hold k links, else a new
// slice of capacity exactly k.
func reuseLinks(buf []*Link, k int) []*Link {
	if cap(buf) >= k {
		return buf[:0]
	}
	return make([]*Link, 0, k)
}

// resolveRoute deduplicates a route (a flow occupies each link once no
// matter how often a route or tree mentions it) into an exactly-sized
// link slice, in first-occurrence order, and filters the
// finite-bandwidth subset the filling engine iterates. Duplicates are
// found by stamping each link with a fresh route epoch, so a route of
// any length — a 20-NPU wafer's in-network tree spans 25 links — costs
// two linear passes and no map. The slices are built in buf and
// finiteBuf when their capacity suffices.
func (n *Network) resolveRoute(route []LinkID, buf, finiteBuf []*Link) (links, finiteLinks []*Link) {
	n.routeEpoch++
	uniq := 0
	for _, id := range route {
		if l := n.links[id]; l.routeSeen != n.routeEpoch {
			l.routeSeen = n.routeEpoch
			uniq++
		}
	}
	n.routeEpoch++
	links = reuseLinks(buf, uniq)
	for _, id := range route {
		if l := n.links[id]; l.routeSeen != n.routeEpoch {
			l.routeSeen = n.routeEpoch
			links = append(links, l)
		}
	}
	finite := 0
	for _, l := range links {
		if !math.IsInf(l.Bandwidth, 1) {
			finite++
		}
	}
	switch finite {
	case len(links):
		finiteLinks = links
	case 0:
		finiteLinks = nil
	default:
		finiteLinks = reuseLinks(finiteBuf, finite)
		for _, l := range links {
			if !math.IsInf(l.Bandwidth, 1) {
				finiteLinks = append(finiteLinks, l)
			}
		}
	}
	return links, finiteLinks
}

// endStage closes the flow's current lifecycle stage (EvFlowStage)
// and opens the next one.
func (n *Network) endStage(f *Flow, stage string) {
	now := n.sched.Now()
	if n.wants(EvFlowStage) {
		n.notify(Event{Kind: EvFlowStage, Now: now, Flow: f, Stage: stage, Start: f.stageStart})
	}
	f.stageStart = now
}

// activate is the flow's latency-event callback: the end of the
// latency stage puts the flow on its links.
func (f *Flow) activate() {
	n := f.net
	n.endStage(f, "latency")
	// A route link may have failed while the flow waited out its
	// latency (or while it was paused): abort instead of occupying a
	// dead link. The latency stage is closed and its event has fired.
	for _, l := range f.links {
		if l.failed {
			n.abortFlow(f)
			return
		}
	}
	if f.remaining <= 0 {
		f.state = FlowActive // momentarily, for finish bookkeeping
		n.finish(f)
		return
	}
	n.settle()
	f.state = FlowActive
	f.activeIdx = len(n.active)
	n.active = append(n.active, f)
	f.actSeq = n.actSeqNext
	n.actSeqNext++
	f.etaValid = false
	if len(f.finiteLinks) == 0 {
		// Contention-free: its +Inf rate cannot perturb any max-min
		// share, so the next recompute freezes it without a filling
		// pass.
		n.freePending = append(n.freePending, f)
	} else {
		// Join the contention partition: the route's finite links union
		// into one domain, which the arrival dirties.
		n.domAttach(f)
	}
	n.markDirty()
}

// Pause preempts an active flow: it stops occupying bandwidth and keeps
// its remaining byte count. Pausing a flow still in its latency stage
// holds it there. Pausing a done or already-paused flow is a no-op.
func (f *Flow) Pause() {
	n := f.net
	switch f.state {
	case FlowActive:
		n.settle()
		n.detach(f)
		n.endStage(f, "active")
		f.state = FlowPaused
		n.markDirty()
	case FlowLatency:
		n.sched.Cancel(&f.latEvent)
		n.endStage(f, "latency")
		f.state = FlowPaused
	}
}

// Resume restarts a paused flow with its remaining bytes. The route
// latency is paid again: a preempted circuit must be re-established.
func (f *Flow) Resume() {
	if f.state != FlowPaused {
		return
	}
	n := f.net
	n.endStage(f, "paused")
	f.state = FlowLatency
	n.sched.Reschedule(&f.latEvent, n.sched.Now()+f.latency)
}

// Cancel abandons the flow without invoking its Done callback.
func (f *Flow) Cancel() {
	n := f.net
	switch f.state {
	case FlowActive:
		n.settle()
		n.detach(f)
		n.endStage(f, "active")
		n.markDirty()
	case FlowLatency:
		n.sched.Cancel(&f.latEvent)
		n.endStage(f, "latency")
	case FlowPaused:
		n.endStage(f, "paused")
	case FlowDone, FlowFailed:
		return
	}
	f.state = FlowDone
	f.finished = n.sched.Now()
	if n.wants(EvFlowCancel) {
		n.notify(Event{Kind: EvFlowCancel, Now: f.finished, Flow: f})
	}
}

// detach removes the flow from the active set — a nil hole at its
// tracked slot, compacted away in order once holes exceed half the
// slice, so activation-order determinism (settle accumulation,
// tie-breaking, traces) is untouched and no scan or shift is needed —
// and parks its completion event.
func (n *Network) detach(f *Flow) {
	if i := f.activeIdx; i >= 0 {
		n.active[i] = nil
		n.activeHoles++
		if 2*n.activeHoles > len(n.active) {
			n.compactActive()
		}
		f.activeIdx = -1
		// Leaving the partition dirties the flow's domain: the
		// survivors' shares change.
		n.domDetach(f)
	}
	n.calRemove(f)
	f.etaValid = false
	if f.complete != nil {
		n.sched.Cancel(f.complete)
	}
	f.rate = 0
}

// compactActive squeezes the holes out of the active slice, keeping
// the live flows in activation order and renumbering their slots.
func (n *Network) compactActive() {
	live := n.active[:0]
	for _, f := range n.active {
		if f != nil {
			f.activeIdx = len(live)
			live = append(live, f)
		}
	}
	clear(n.active[len(live):])
	n.active = live
	n.activeHoles = 0
}

func (n *Network) finish(f *Flow) {
	if f.state == FlowActive {
		n.settle()
		if math.IsInf(f.rate, 1) {
			// A contention-free flow completes in zero time, so settle
			// moved none of its bytes: credit them to its route here.
			for _, l := range f.links {
				l.bytesDone += f.remaining
			}
		}
		n.detach(f)
		n.endStage(f, "active")
		n.markDirty()
	}
	f.state = FlowDone
	f.remaining = 0
	f.finished = n.sched.Now()
	if n.wants(EvFlowDone) {
		n.notify(Event{Kind: EvFlowDone, Now: f.finished, Flow: f})
	}
	if n.crit != nil {
		id := n.crit.Add(critpath.Node{
			Kind:     critpath.KindFlow,
			Label:    f.label,
			Start:    f.started,
			End:      f.finished,
			Blame:    critpath.ClampBlame(f.finished-f.started, f.stall),
			BindLink: f.BindLinkName(),
		})
		n.crit.Edge(critpath.EdgeExpand, f.critParent, id)
	}
	if f.done != nil {
		f.done(f)
	}
	n.release(f)
}

// settle advances all active flows' byte counters to the current time
// at their last-computed rates, and accrues link utilisation. The
// active slice is iterated in activation order so the floating-point
// accumulation into link byte counters is deterministic.
func (n *Network) settle() {
	now := n.sched.Now()
	dt := now - n.lastSettle
	if dt <= 0 {
		n.lastSettle = now
		return
	}
	for _, f := range n.active {
		if f == nil {
			continue
		}
		moved := f.rate * dt
		if moved > f.remaining {
			moved = f.remaining
		}
		f.remaining -= moved
		for _, l := range f.links {
			l.bytesDone += moved
		}
		if n.crit != nil {
			// Exact contention integral: rates are piecewise-constant
			// between settlements, and Degrade/Fail settle before mutating
			// bandwidth, so the solo rate (narrowest-link bandwidth) read
			// here is the one that held over the whole interval.
			solo := math.Inf(1)
			for _, l := range f.finiteLinks {
				if l.Bandwidth < solo {
					solo = l.Bandwidth
				}
			}
			if f.rate < solo {
				frac := 1.0
				if f.rate > 0 && !math.IsInf(solo, 1) {
					frac = 1 - f.rate/solo
				}
				f.stall += dt * frac
			}
		}
	}
	n.lastSettle = now
}

// markDirty schedules a single rate recomputation at the current
// timestamp, so that a burst of same-time flow mutations is followed by
// exactly one progressive-filling pass. The trigger event is re-armed
// in place, never reallocated.
func (n *Network) markDirty() {
	if n.dirty {
		return
	}
	n.dirty = true
	if n.dirtyEvent == nil {
		n.dirtyEvent = n.sched.After(0, func() { n.recomputeFn() })
	} else {
		n.sched.Reschedule(n.dirtyEvent, n.sched.Now())
	}
}

// recompute reacts to a change in the active-flow set: it settles byte
// counters, refills the dirty contention domains' max-min rates, and
// re-times the refilled flows' completions on the calendar.
//
// Only domains dirtied since the last pass are filled — churn
// elsewhere cannot move their rates, so clean domains are skipped
// wholesale, flows keeping their rates, armed ETAs and calendar keys.
// Pure contention-free churn (flows whose every link has infinite
// bandwidth) dirties no domain at all and just freezes the arrivals at
// +Inf. Dirty domains fill one after another in collection order, then
// their flows' completions are armed in that same domain order.
func (n *Network) recompute() {
	n.dirty = false
	n.settle()
	n.stats.Recomputes++
	n.armPass++

	n.collectDirtyDomains()
	now := n.sched.Now()
	if len(n.procRoots) > 0 {
		n.stats.FillPasses++
		n.fillEpoch++
		if len(n.obs) > 0 {
			n.ensureRateSum()
		}
		for _, root := range n.procRoots {
			n.fillDomain(root)
		}
		n.stats.DomainsFilled += uint64(len(n.procRoots))
		// Completion re-arming for the refilled flows, in collection
		// order. Flows whose rate came out bit-identical keep their
		// armed ETA and calendar key (see armFlow).
		for _, root := range n.procRoots {
			for f := root.domFlowHead; f != nil; f = f.domNext {
				n.armFlow(f, now)
			}
		}
	}

	for i, f := range n.freePending {
		if f.state == FlowActive && len(f.finiteLinks) == 0 {
			f.rate = math.Inf(1)
			n.armFlow(f, now)
		}
		n.freePending[i] = nil // release flow references for GC
	}
	n.freePending = n.freePending[:0]

	// The last finite-link flow left: reset the whole partition in
	// O(1). Runs after the fill so departing domains' telemetry sums
	// were zeroed through their (still-valid) link lists above.
	if n.partActive == 0 {
		n.partVersion++
	}

	n.armProxy()

	if n.wants(EvPass) {
		n.observePass(now)
	}
}

// ensureRateSum grows the per-link rate-sum slice to cover every
// registered link, preserving maintained sums (new links start at 0).
func (n *Network) ensureRateSum() {
	for len(n.rateSum) < len(n.links) {
		n.rateSum = append(n.rateSum, 0)
	}
}
