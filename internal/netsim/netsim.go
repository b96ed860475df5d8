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
package netsim

import (
	"fmt"
	"math"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/trace"
)

// NodeID identifies a node within a Network.
type NodeID int

// LinkID identifies a directed link within a Network.
type LinkID int

// rateEpsilon is the slack used when deciding that a link is saturated
// or that a flow has drained, guarding against float64 round-off.
const rateEpsilon = 1e-9

// dedupThreshold is the route length above which StartFlow falls back
// to a map for link deduplication; at or below it a linear scan is
// cheaper and allocation-free.
const dedupThreshold = 16

// Link is a directed channel between two nodes.
type Link struct {
	ID        LinkID
	Src, Dst  NodeID
	Bandwidth float64 // bytes per second; math.Inf(1) for contention-free hops
	Latency   float64 // seconds per traversal
	Name      string

	net       *Network
	bytesDone float64 // cumulative bytes carried, for utilisation reports
	peakUtil  float64 // max instantaneous utilization (telemetry/tracing only)
	// Fault state (see faults.go): a failed link admits no flows, and
	// baseBW remembers the healthy bandwidth across Degrade/Restore.
	failed bool
	baseBW float64
	// utilHist is the link's time-weighted utilization distribution,
	// registered lazily on the network's metrics registry (SetMetrics)
	// in link-ID order; nil while metrics are off.
	utilHist *metrics.Series

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
	domVersion  uint64
	domParent   int32 // parent's link index (the link's own ID at a root)
	domSize     int32
	domDirty    bool
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

// PeakUtil reports the link's maximum observed instantaneous
// utilization (sum of flow rates over bandwidth). It is only tracked
// while link telemetry or tracing is enabled on the network; infinite-
// bandwidth links always report zero.
func (l *Link) PeakUtil() float64 { return l.peakUtil }

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
	// FlowFailed means the flow was aborted by a link failure after
	// exhausting its retry budget (or with no reroute path configured).
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
	// Reroute, when non-nil, makes the flow survivable: after a link on
	// its route fails, the flow is torn down (keeping its remaining byte
	// count) and re-admitted on the route Reroute returns, after a
	// bounded exponential backoff (see RetryPolicy). attempt is the
	// 1-based retry count. Returning ok=false — no alternative route
	// exists — aborts the flow. A nil Reroute aborts on first failure.
	Reroute func(attempt int) ([]LinkID, bool)
	// OnFail is called when the flow is aborted by a link failure (its
	// Done callback never runs). It may start new flows.
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
	// latEvent times the latency stage (and a fault retry's backoff).
	// It is embedded and bound once per Flow object to fireLatency;
	// retrying selects the backoff branch.
	latEvent   sim.Event
	retrying   bool
	activeIdx  int    // index in net.active; -1 while not active
	fillFrozen bool   // progressive-filling scratch
	actSeq     uint64 // activation sequence (assigned per activate)
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
	stageStart sim.Time // start of the current lifecycle stage (tracing)
	lastRate   float64  // last rate sample emitted to the tracer
	reroute    func(attempt int) ([]LinkID, bool)
	onFail     func(*Flow)
	retries    int // link-failure teardowns suffered so far

	// Critpath bookkeeping, only touched while the network has a
	// recorder (SetCritPath): stall is the exact contention integral
	// ∫(1 − rate/solo)dt over the flow's active life, faultTime the
	// summed teardown-to-readmission windows, bindLink the last link
	// that froze the flow in the waterfiller's bottleneck ordering.
	stall      float64
	faultTime  float64
	inFault    bool
	faultFrom  sim.Time
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

// Retries returns how many times the flow has been torn down by a link
// failure (each teardown either re-admits the flow via Reroute or, once
// the retry budget is exhausted, aborts it).
func (f *Flow) Retries() int { return f.retries }

// Label returns the flow's tag.
func (f *Flow) Label() string { return f.label }

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

// FaultTime returns the summed fault-recovery windows (teardown to
// re-admission: backoff plus the re-paid route latency) the flow has
// suffered. Only accumulated while critpath recording is enabled.
func (f *Flow) FaultTime() float64 {
	if f.inFault {
		return f.faultTime + (f.net.sched.Now() - f.faultFrom)
	}
	return f.faultTime
}

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
	nodes []string
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
	// domain roots, allDirty is the ForceFullFill escape hatch, and
	// seenEpoch dedupes roots during collection.
	partVersion uint64
	partActive  int
	actSeqNext  uint64
	dirtyRoots  []*Link
	allDirty    bool
	seenEpoch   uint64
	freePending []*Flow

	// Dirty-domain work list of the in-flight recompute, and the
	// reusable fill scratch.
	procRoots   []*Link
	fillScratch fillScratch
	stats       FillStats

	// Completion calendar (domain.go): active flows' armed completions
	// in an indexed min-heap ordered by (eta, arming pass, activation
	// seq), drained by the single proxy scheduler event. armPass counts
	// recomputes for the calendar key.
	cal     []*Flow
	proxy   *sim.Event
	armPass uint64

	// Reusable scratch (the allocation-free core): fillEpoch stamps
	// per-link scratch validity, rateSum holds the per-link flow-rate
	// sums, maintained by domain fills (zeroed and re-accumulated for a
	// dirty domain's links only) and read by telemetry and tracing.
	fillEpoch uint64
	rateSum   []float64

	flowSeq   uint64
	tracer    trace.Tracer
	telemetry bool
	lastUtil  []float64 // per-link utilization as of the last observe pass

	// Metrics registry (SetMetrics): per-link time-weighted utilization
	// histograms sampled at rate-recompute boundaries, plus flow/byte
	// counters. lastObserve marks the start of the interval whose
	// (piecewise-constant) utilization has not yet been accumulated.
	metrics         *metrics.Registry
	lastObserve     sim.Time
	mFlowsStarted   *metrics.Series
	mFlowsCompleted *metrics.Series
	mBytesDelivered *metrics.Series
	mFlowsRerouted  *metrics.Series
	mFlowsAborted   *metrics.Series

	// Fault bookkeeping (faults.go): the retry policy applied to flows
	// torn down by link failures, and a reused scratch slice for
	// collecting the flows crossing a failing link. stateEpoch counts
	// fabric mutations (Fail/Degrade/Restore); schedule caches key on
	// it so stale routes are never replayed (see StateEpoch).
	retry       RetryPolicy
	failScratch []*Flow
	stateEpoch  uint64

	// freeFlows holds finished Flow objects for StartFlow to reuse;
	// bounded by the peak number of concurrently live flows.
	freeFlows []*Flow

	// crit, when non-nil (SetCritPath), records every flow's causal
	// node, contention stall and binding link into the critpath DAG.
	crit *critpath.Recorder

	// Flight-recorder state (SetTimeseries): delivered/completed are
	// always-on scalar totals (two adds per flow completion) so the
	// time-series probes have cumulative signals to sample without the
	// metrics registry attached; fillExported remembers the FillStats
	// already flushed into the metrics registry so repeated
	// FlushMetrics calls export monotone deltas.
	ts           *timeseries.Recorder
	delivered    float64
	completed    uint64
	fillExported FillStats

	name       string // trace namespace (SetName)
	catFlow    string
	linkPrefix string
	trackNet   string
}

// New creates an empty network driven by the given scheduler.
func New(s *sim.Scheduler) *Network {
	n := &Network{sched: s, retry: DefaultRetryPolicy(), partVersion: 1}
	n.recomputeFn = n.recompute
	n.SetName("")
	return n
}

// SetName assigns a trace namespace to this network instance. When
// several independent simulations record into one shared tracer (the
// experiment drivers build a fresh network per run), the name keeps
// their flow categories, link counters and ids from colliding on the
// merged timeline. An empty name uses the bare track names.
func (n *Network) SetName(name string) {
	n.name = name
	if name == "" {
		n.catFlow, n.linkPrefix, n.trackNet = "flow", "link/", "net"
	} else {
		n.catFlow, n.linkPrefix, n.trackNet = "flow/"+name, "link/"+name+"/", "net/"+name
	}
}

// Name returns the trace namespace set with SetName.
func (n *Network) Name() string { return n.name }

// Scheduler returns the scheduler driving this network.
func (n *Network) Scheduler() *sim.Scheduler { return n.sched }

// SetTracer attaches an observability tracer: flows emit lifecycle
// spans (latency → active → paused → done) on the "flow" async
// category, links emit utilization counter series, and the network
// emits an active-flow counter. A nil tracer (the default) disables
// all of it; the hot paths then pay only nil checks.
func (n *Network) SetTracer(tr trace.Tracer) { n.tracer = tr }

// Tracer returns the attached tracer, or nil.
func (n *Network) Tracer() trace.Tracer { return n.tracer }

// EnableLinkTelemetry turns on per-link peak-utilization tracking,
// feeding Link.PeakUtil and the TopLinks hotspot report. Byte
// accounting (Link.BytesCarried, mean utilization) is always on.
func (n *Network) EnableLinkTelemetry() { n.telemetry = true }

// SetMetrics attaches a metrics registry: the network registers flow
// and byte counters immediately, and accumulates a time-weighted
// utilization histogram per finite-bandwidth link, sampled at
// rate-recompute boundaries (utilization is piecewise-constant between
// them, so the accumulated distribution is exact up to the last
// recompute — call FlushMetrics at end of run to settle the final
// interval). Implies EnableLinkTelemetry so peak utilization is
// tracked alongside the distribution. A nil registry detaches.
func (n *Network) SetMetrics(reg *metrics.Registry) {
	n.metrics = reg
	if reg == nil {
		n.mFlowsStarted, n.mFlowsCompleted, n.mBytesDelivered = nil, nil, nil
		n.mFlowsRerouted, n.mFlowsAborted = nil, nil
		return
	}
	n.telemetry = true
	n.mFlowsStarted = reg.Counter("net/flows_started", "")
	n.mFlowsCompleted = reg.Counter("net/flows_completed", "")
	n.mBytesDelivered = reg.Counter("net/bytes_delivered", "B")
	n.mFlowsRerouted = reg.Counter("net/flows_rerouted", "")
	n.mFlowsAborted = reg.Counter("net/flows_aborted", "")
	n.lastObserve = n.sched.Now()
}

// Metrics returns the attached metrics registry, or nil.
func (n *Network) Metrics() *metrics.Registry { return n.metrics }

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

// utilTopK is the number of hottest links folded into the flight
// recorder's net/util/topk_mean probe.
const utilTopK = 8

// SetTimeseries attaches a flight recorder: the network registers its
// load probes — active flows, completed flows, cumulative delivered
// bytes, rate-engine FillStats counters, and instantaneous link
// utilization (the maximum and the mean of the utilTopK hottest
// links) — plus, when a critpath recorder is attached, the cumulative
// blame decomposition. Attach SetCritPath first if blame series are
// wanted. Probes are pure reads sampled from the scheduler's event
// hook, so recording cannot perturb simulated results. Implies
// EnableLinkTelemetry. A nil recorder detaches (probes already
// registered keep sampling a detached network harmlessly).
func (n *Network) SetTimeseries(rec *timeseries.Recorder) {
	n.ts = rec
	if rec == nil {
		return
	}
	n.telemetry = true
	rec.Probe("net/active_flows", "", func() float64 { return float64(n.ActiveFlows()) })
	rec.Probe("net/flows_completed", "", func() float64 { return float64(n.completed) })
	rec.Probe("net/bytes_delivered", "B", func() float64 { return n.delivered })
	rec.Probe("net/fill/recomputes", "", func() float64 { return float64(n.stats.Recomputes) })
	rec.Probe("net/fill/domains_filled", "", func() float64 { return float64(n.stats.DomainsFilled) })
	rec.Probe("net/fill/flows_filled", "", func() float64 { return float64(n.stats.FlowsFilled) })
	rec.Probe("net/util/max", "", func() float64 { mx, _ := n.utilTop(); return mx })
	rec.Probe("net/util/topk_mean", "", func() float64 { _, mean := n.utilTop(); return mean })
	if n.crit != nil {
		rec.Probe("crit/serial_s", "s", func() float64 { return n.crit.ClosedBlame().Serial })
		rec.Probe("crit/contention_s", "s", func() float64 { return n.crit.ClosedBlame().Contention })
		rec.Probe("crit/fault_s", "s", func() float64 { return n.crit.ClosedBlame().Fault })
	}
}

// Timeseries returns the attached flight recorder, or nil.
func (n *Network) Timeseries() *timeseries.Recorder { return n.ts }

// utilTop scans the finite links' instantaneous utilization (the
// fill-maintained per-link rate sums over bandwidth) and returns the
// maximum and the mean of the utilTopK hottest links. A pure read —
// it runs inside the scheduler event hook.
func (n *Network) utilTop() (max, topKMean float64) {
	var top [utilTopK]float64
	count := 0
	for _, l := range n.links {
		if math.IsInf(l.Bandwidth, 1) || int(l.ID) >= len(n.rateSum) {
			continue
		}
		u := n.rateSum[l.ID] / l.Bandwidth
		if u > max {
			max = u
		}
		// Insertion into the fixed top-K buffer (K is small).
		if count < utilTopK {
			top[count] = u
			count++
			continue
		}
		mi := 0
		for i := 1; i < utilTopK; i++ {
			if top[i] < top[mi] {
				mi = i
			}
		}
		if u > top[mi] {
			top[mi] = u
		}
	}
	if count == 0 {
		return max, 0
	}
	sum := 0.0
	for i := 0; i < count; i++ {
		sum += top[i]
	}
	return max, sum / float64(count)
}

// FlushMetrics settles byte counters and accumulates the utilization
// interval since the last rate recomputation into the per-link
// histograms, so distributions cover the full horizon including a
// trailing idle (or steady-state) tail. Call it when a run is over,
// before exporting the registry. A no-op without SetMetrics.
func (n *Network) FlushMetrics() {
	if n.metrics == nil {
		return
	}
	n.settle()
	n.accumUtil(n.sched.Now())
	n.flushFillStats()
}

// flushFillStats exports the sharded rate engine's deterministic work
// counters into the metrics registry as netsim/fill/* series, so they
// appear in fred-metrics artifacts and fredreport diffs, not just the
// scaleout CSV. Counters are monotone: repeated flushes add only the
// delta accumulated since the previous one.
func (n *Network) flushFillStats() {
	cur, prev := n.stats, n.fillExported
	add := func(name string, cur, prev uint64) {
		n.metrics.Counter("netsim/fill/"+name, "").Add(float64(cur - prev))
	}
	add("recomputes", cur.Recomputes, prev.Recomputes)
	add("fill_passes", cur.FillPasses, prev.FillPasses)
	add("lazy_skips", cur.Recomputes-cur.FillPasses, prev.Recomputes-prev.FillPasses)
	add("domains_filled", cur.DomainsFilled, prev.DomainsFilled)
	add("components_filled", cur.ComponentsFilled, prev.ComponentsFilled)
	add("flows_filled", cur.FlowsFilled, prev.FlowsFilled)
	n.fillExported = cur
}

// accumUtil charges the utilization that held over [lastObserve, now)
// — the per-link values of the last observe pass — to the link
// histograms, registering them on first use in link-ID order.
func (n *Network) accumUtil(now sim.Time) {
	dt := now - n.lastObserve
	if dt > 0 {
		for _, l := range n.links {
			if math.IsInf(l.Bandwidth, 1) {
				continue
			}
			if l.utilHist == nil {
				l.utilHist = n.metrics.Histogram(n.linkPrefix+l.Name+"/util", "", metrics.UtilBuckets())
			}
			u := 0.0
			if int(l.ID) < len(n.lastUtil) {
				u = n.lastUtil[l.ID]
			}
			l.utilHist.Observe(u, dt)
		}
	}
	n.lastObserve = now
}

// AddNode registers a node and returns its ID.
func (n *Network) AddNode(name string) NodeID {
	n.nodes = append(n.nodes, name)
	return NodeID(len(n.nodes) - 1)
}

// NodeName returns the name given to AddNode.
func (n *Network) NodeName(id NodeID) string { return n.nodes[id] }

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

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
	l := &n.linkChunk[0]
	n.linkChunk = n.linkChunk[1:]
	*l = Link{
		ID:        LinkID(len(n.links)),
		Src:       src,
		Dst:       dst,
		Bandwidth: bandwidth,
		Latency:   latency,
		Name:      name,
		net:       n,
	}
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
	f.reroute = spec.Reroute
	f.onFail = spec.OnFail
	f.started = n.sched.Now()
	f.stageStart = f.started
	f.state = FlowLatency
	f.critParent = spec.CritParent
	n.flowSeq++
	if n.mFlowsStarted != nil {
		n.mFlowsStarted.Add(1)
	}
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
	f.latEvent.Bind(f.fireLatency)
	return f
}

// release queues a completed flow for reuse once its Done callback
// returned. It drops the flow's callbacks, so a queued flow pins
// nothing of its owner; newFlow resets the rest on reuse.
func (n *Network) release(f *Flow) {
	f.done, f.onFail, f.reroute = nil, nil, nil
	n.freeFlows = append(n.freeFlows, f)
}

// fireLatency is the flow's latency-event callback: the end of a
// latency stage activates the flow; the end of a retry backoff asks
// for a fresh route.
func (f *Flow) fireLatency() {
	if f.retrying {
		f.retrying = false
		f.net.retryFlow(f)
		return
	}
	f.net.activate(f)
}

// buildRoute resolves the route into the flow's link slices, reusing
// the capacity the Flow object resolved into before.
func (n *Network) buildRoute(f *Flow, route []LinkID) {
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
// link slice, and filters the finite-bandwidth subset the filling
// engine iterates. Routes are short, so duplicates are found by linear
// scan; only pathologically long routes pay for a map. The slices are
// built in buf and finiteBuf when their capacity suffices.
func (n *Network) resolveRoute(route []LinkID, buf, finiteBuf []*Link) (links, finiteLinks []*Link) {
	if len(route) <= dedupThreshold {
		uniq := 0
		for i, id := range route {
			dup := false
			for _, prev := range route[:i] {
				if prev == id {
					dup = true
					break
				}
			}
			if !dup {
				uniq++
			}
		}
		links = reuseLinks(buf, uniq)
		for _, id := range route {
			l := n.links[id]
			dup := false
			for _, prev := range links {
				if prev == l {
					dup = true
					break
				}
			}
			if !dup {
				links = append(links, l)
			}
		}
	} else {
		links = reuseLinks(buf, len(route))
		seen := make(map[LinkID]bool, len(route))
		for _, id := range route {
			if !seen[id] {
				seen[id] = true
				links = append(links, n.links[id])
			}
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

// traceStage closes the flow's current lifecycle stage with a span on
// its async track and opens the next one.
func (n *Network) traceStage(f *Flow, stage string) {
	now := n.sched.Now()
	if n.tracer != nil {
		n.tracer.AsyncSpan(n.catFlow, stage, f.id, f.stageStart, now, trace.String("label", f.label))
	}
	f.stageStart = now
}

func (n *Network) activate(f *Flow) {
	n.traceStage(f, "latency")
	// A route link may have failed while the flow waited out its
	// latency (or while it was paused): divert to the retry path
	// instead of occupying a dead link.
	for _, l := range f.links {
		if l.failed {
			n.flowRouteFailed(f)
			return
		}
	}
	if n.crit != nil && f.inFault {
		// Re-admission closes the fault-recovery window opened at
		// teardown: backoff plus the re-paid route latency.
		f.faultTime += n.sched.Now() - f.faultFrom
		f.inFault = false
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
		n.traceStage(f, "active")
		f.state = FlowPaused
		n.markDirty()
	case FlowLatency:
		n.sched.Cancel(&f.latEvent)
		n.traceStage(f, "latency")
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
	n.traceStage(f, "paused")
	f.state = FlowLatency
	f.retrying = false
	n.sched.Reschedule(&f.latEvent, n.sched.Now()+f.latency)
}

// Cancel abandons the flow without invoking its Done callback.
func (f *Flow) Cancel() {
	n := f.net
	switch f.state {
	case FlowActive:
		n.settle()
		n.detach(f)
		n.traceStage(f, "active")
		n.markDirty()
	case FlowLatency:
		n.sched.Cancel(&f.latEvent)
		n.traceStage(f, "latency")
	case FlowPaused:
		n.traceStage(f, "paused")
	case FlowDone, FlowFailed:
		return
	}
	f.state = FlowDone
	f.finished = n.sched.Now()
	if n.tracer != nil {
		n.tracer.AsyncInstant(n.catFlow, "canceled", f.id, f.finished,
			trace.String("label", f.label), trace.Float("remaining", f.remaining))
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
		n.traceStage(f, "active")
		n.markDirty()
	}
	f.state = FlowDone
	f.remaining = 0
	f.finished = n.sched.Now()
	n.completed++
	n.delivered += f.total
	if n.mFlowsCompleted != nil {
		n.mFlowsCompleted.Add(1)
		n.mBytesDelivered.Add(f.total)
	}
	if n.tracer != nil {
		n.tracer.AsyncInstant(n.catFlow, "done", f.id, f.finished,
			trace.String("label", f.label), trace.Float("bytes", f.total))
	}
	if n.crit != nil {
		id := n.crit.Add(critpath.Node{
			Kind:     critpath.KindFlow,
			Label:    f.label,
			Start:    f.started,
			End:      f.finished,
			Blame:    critpath.ClampBlame(f.finished-f.started, f.stall, f.faultTime),
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
		n.ensureRateSum()
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

	if n.tracer != nil || n.telemetry || n.metrics != nil {
		n.observeRates(now, false)
	}
}

// ensureRateSum grows the per-link rate-sum slice to cover every
// registered link, preserving maintained sums (new links start at 0).
func (n *Network) ensureRateSum() {
	for len(n.rateSum) < len(n.links) {
		n.rateSum = append(n.rateSum, 0)
	}
}

// observeRates runs after every rate recomputation when telemetry or
// tracing is on: it updates per-link peak utilization and emits
// changed link-utilization and flow-rate samples to the tracer. The
// per-link rate sums are maintained incrementally by the domain fills
// (a dirty domain zeroes and re-accumulates its own links' sums in
// activation order — the same order a full pass uses, so the floats
// match bit-for-bit); the reference engine instead passes full=true to
// rebuild every sum from the active slice from scratch.
func (n *Network) observeRates(now sim.Time, full bool) {
	if n.lastUtil == nil {
		n.lastUtil = make([]float64, len(n.links))
	}
	for len(n.lastUtil) < len(n.links) {
		n.lastUtil = append(n.lastUtil, 0)
	}
	if n.metrics != nil {
		// The utilization recorded in lastUtil held from the previous
		// observe pass until now; charge that interval to the link
		// histograms before overwriting it with the fresh rates.
		n.accumUtil(now)
	}
	n.ensureRateSum()
	rateSum := n.rateSum
	if full {
		for i := range rateSum {
			rateSum[i] = 0
		}
		for _, f := range n.active {
			if f == nil {
				continue
			}
			for _, l := range f.finiteLinks {
				rateSum[l.ID] += f.rate
			}
		}
	}
	for _, l := range n.links {
		if math.IsInf(l.Bandwidth, 1) {
			continue
		}
		util := rateSum[l.ID] / l.Bandwidth
		if util > l.peakUtil {
			l.peakUtil = util
		}
		if n.tracer != nil && util != n.lastUtil[l.ID] {
			n.tracer.Counter(n.linkPrefix+l.Name, "util", now, util)
		}
		n.lastUtil[l.ID] = util
	}
	if n.tracer == nil {
		return
	}
	n.tracer.Counter(n.trackNet, "active_flows", now, float64(n.ActiveFlows()))
	for _, f := range n.active {
		if f == nil {
			continue
		}
		if f.rate != f.lastRate && !math.IsInf(f.rate, 1) {
			n.tracer.AsyncInstant(n.catFlow, "rate", f.id, now,
				trace.String("label", f.label), trace.Float("bps", f.rate))
			f.lastRate = f.rate
		}
	}
}

// LinkRates returns each active flow's rate summed per link, primarily
// for tests and diagnostics.
func (n *Network) LinkRates() map[LinkID]float64 {
	n.settle()
	out := make(map[LinkID]float64)
	for _, f := range n.active {
		if f == nil {
			continue
		}
		for _, l := range f.links {
			out[l.ID] += f.rate
		}
	}
	return out
}
