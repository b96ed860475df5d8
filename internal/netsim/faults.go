package netsim

// Fault layer: links can fail permanently or degrade transiently at
// simulated time, and flows crossing a failing link are torn down and —
// when a Reroute is configured — re-admitted after a bounded
// exponential backoff. Everything here reuses the ordinary flow
// lifecycle (detach/activate/markDirty), so the incremental filling
// engine is untouched: a failed link simply no longer carries flows,
// and a degraded link is just a link whose Bandwidth changed between
// recomputes. Degrade never toggles a link between finite and infinite
// bandwidth, which keeps every flow's precomputed finiteLinks subset
// valid.
//
// Determinism: flows crossing a failing link are collected in
// activation order, and every retry is an ordinary scheduler event, so
// fault handling inherits the (time, insertion-seq) total order of the
// scheduler and stays bit-reproducible.

import (
	"fmt"
	"math"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/trace"
)

// RetryPolicy bounds how a flow with a Reroute callback recovers from
// link failures: teardown k (1-based) waits Backoff·2^(k-1) before
// asking Reroute for a fresh route, and after MaxRetries teardowns the
// flow aborts.
type RetryPolicy struct {
	// MaxRetries is the number of link-failure teardowns a flow
	// survives; the teardown after that aborts it. Zero means abort on
	// first failure even with a Reroute configured.
	MaxRetries int
	// Backoff is the wait before the first retry; each subsequent retry
	// doubles it.
	Backoff sim.Time
}

// DefaultRetryPolicy is the policy installed by New: four retries
// starting at 1µs of backoff (a circuit re-establishment time scale,
// comfortably above per-hop link latencies).
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxRetries: 4, Backoff: 1e-6}
}

// SetRetryPolicy replaces the retry policy applied to flows torn down
// by link failures. It affects subsequent teardowns only.
func (n *Network) SetRetryPolicy(p RetryPolicy) {
	if p.MaxRetries < 0 {
		panic(fmt.Sprintf("netsim: negative MaxRetries %d", p.MaxRetries))
	}
	if p.Backoff < 0 {
		panic(fmt.Sprintf("netsim: negative Backoff %g", p.Backoff))
	}
	n.retry = p
}

// RetryPolicy returns the policy applied to flows torn down by link
// failures.
func (n *Network) RetryPolicy() RetryPolicy { return n.retry }

// Failed reports whether the link has permanently failed.
func (l *Link) Failed() bool { return l.failed }

// Fail permanently removes the link from service at the current
// simulated time. Every flow whose route crosses it — active, paused,
// or still in its latency stage — is torn down: flows with a Reroute
// callback enter the retry path (bounded exponential backoff, then
// re-admission on the route Reroute returns), the rest abort. Failing
// an already-failed link is a no-op.
func (l *Link) Fail() {
	if l.failed {
		return
	}
	n := l.net
	n.settle()
	l.failed = true
	n.stateEpoch++
	if n.tracer != nil {
		n.tracer.Instant("link", "fail "+l.Name, n.sched.Now())
	}
	// Collect first, then tear down: flowRouteFailed mutates n.active
	// (detach may compact it), so the victims are snapshotted into the
	// reused scratch slice. Active flows are collected in activation
	// order — the network's canonical deterministic order — and
	// latency/paused flows are not on any route yet, so they are caught
	// lazily by the failed-link check in activate instead.
	victims := n.failScratch[:0]
	for _, f := range n.active {
		if f == nil {
			continue
		}
		for _, fl := range f.links {
			if fl == l {
				victims = append(victims, f)
				break
			}
		}
	}
	for i, f := range victims {
		n.flowRouteFailed(f)
		victims[i] = nil // drop the reference so the scratch slice doesn't pin flows
	}
	n.failScratch = victims[:0]
	n.markDirty()
}

// Degrade scales the link's bandwidth to factor times its healthy
// value, modelling a transient fault (signal-margin loss, a lane down
// in a bundle, a failed middle µswitch removing 1/m of a FRED bundle).
// factor must be in (0, 1]; Degrade(1) — and Restore — return the link
// to its healthy bandwidth. Successive calls always scale the original
// healthy bandwidth, not each other. Degrading an infinite
// (contention-free) link or a failed link panics: the former would
// invalidate every flow's finite-link subset, the latter is dead.
func (l *Link) Degrade(factor float64) {
	if !(factor > 0 && factor <= 1) {
		panic(fmt.Sprintf("netsim: link %q degrade factor %g outside (0, 1]", l.Name, factor))
	}
	if math.IsInf(l.Bandwidth, 1) {
		panic(fmt.Sprintf("netsim: cannot degrade contention-free link %q", l.Name))
	}
	if l.failed {
		panic(fmt.Sprintf("netsim: cannot degrade failed link %q", l.Name))
	}
	n := l.net
	n.settle()
	n.stateEpoch++
	if l.baseBW == 0 {
		l.baseBW = l.Bandwidth
	}
	l.Bandwidth = l.baseBW * factor
	if n.tracer != nil {
		n.tracer.Instant("link", fmt.Sprintf("degrade %s ×%g", l.Name, factor), n.sched.Now())
	}
	// Only flows in this link's contention domain can see their max-min
	// share move; a link no active route has touched this partition
	// version (root nil) carries no rate and needs no refill at all.
	if r := n.domRootOf(l); r != nil {
		n.markDomainDirty(r)
		n.markDirty()
	}
}

// Restore returns a degraded link to its healthy bandwidth. Restoring a
// never-degraded link is a no-op; restoring a failed link panics
// (failures are permanent).
func (l *Link) Restore() {
	if l.failed {
		panic(fmt.Sprintf("netsim: cannot restore failed link %q", l.Name))
	}
	if l.baseBW == 0 || l.Bandwidth == l.baseBW {
		l.baseBW = 0
		return
	}
	n := l.net
	n.settle()
	n.stateEpoch++
	l.Bandwidth = l.baseBW
	l.baseBW = 0
	if n.tracer != nil {
		n.tracer.Instant("link", "restore "+l.Name, n.sched.Now())
	}
	if r := n.domRootOf(l); r != nil {
		n.markDomainDirty(r)
		n.markDirty()
	}
}

// FailNode fails every link touching the node (as source or
// destination) in link-ID order, modelling an NPU dropout or a µswitch
// failure taking out all its ports. It returns the number of links
// newly failed.
func (n *Network) FailNode(id NodeID) int {
	failed := 0
	for _, l := range n.links {
		if (l.Src == id || l.Dst == id) && !l.failed {
			l.Fail()
			failed++
		}
	}
	return failed
}

// flowRouteFailed tears the flow off its (now partly dead) route and
// either schedules a retry or aborts it, per the network's RetryPolicy.
func (n *Network) flowRouteFailed(f *Flow) {
	switch f.state {
	case FlowActive:
		// settle already ran (Fail settles before collecting victims).
		n.detach(f)
		n.traceStage(f, "active")
		n.markDirty()
	case FlowLatency:
		n.sched.Cancel(&f.latEvent)
		n.traceStage(f, "latency")
	default:
		return
	}
	f.rate = 0
	f.retries++
	if n.crit != nil && !f.inFault {
		// Open the fault-recovery window; re-admission (activate) or
		// abort closes it.
		f.inFault = true
		f.faultFrom = n.sched.Now()
	}
	if f.reroute == nil || f.retries > n.retry.MaxRetries {
		n.abortFlow(f)
		return
	}
	// Bounded exponential backoff: 1st teardown waits Backoff, each
	// further teardown doubles it. The reroute callback runs at
	// retry-fire time, so it sees the fault state of that moment, not
	// of the teardown.
	backoff := n.retry.Backoff * float64(int64(1)<<uint(f.retries-1))
	f.state = FlowLatency
	f.stageStart = n.sched.Now()
	f.retrying = true
	n.sched.Reschedule(&f.latEvent, n.sched.Now()+backoff)
}

// retryFlow ends a retry backoff (fireLatency): it asks Reroute for a
// fresh route and re-enters the latency stage on it, or aborts the
// flow when no route exists.
func (n *Network) retryFlow(f *Flow) {
	route, ok := f.reroute(f.retries)
	if !ok {
		n.traceStage(f, "backoff")
		n.abortFlow(f)
		return
	}
	if n.mFlowsRerouted != nil {
		n.mFlowsRerouted.Add(1)
	}
	n.traceStage(f, "backoff")
	n.buildRoute(f, route)
	lat := 0.0
	for _, l := range f.links {
		lat += l.Latency
	}
	f.latency = lat
	n.sched.Reschedule(&f.latEvent, n.sched.Now()+lat)
}

// abortFlow marks the flow failed and notifies its OnFail callback. The
// flow keeps its remaining byte count for inspection.
func (n *Network) abortFlow(f *Flow) {
	f.state = FlowFailed
	f.finished = n.sched.Now()
	f.rate = 0
	if n.mFlowsAborted != nil {
		n.mFlowsAborted.Add(1)
	}
	if n.tracer != nil {
		n.tracer.AsyncInstant(n.catFlow, "failed", f.id, f.finished,
			trace.String("label", f.label), trace.Float("remaining", f.remaining))
	}
	if n.crit != nil {
		if f.inFault {
			f.faultTime += f.finished - f.faultFrom
			f.inFault = false
		}
		id := n.crit.Add(critpath.Node{
			Kind:     critpath.KindFlow,
			Label:    f.label,
			Start:    f.started,
			End:      f.finished,
			Blame:    critpath.ClampBlame(f.finished-f.started, f.stall, f.faultTime),
			BindLink: f.BindLinkName(),
			Failed:   true,
		})
		n.crit.Edge(critpath.EdgeExpand, f.critParent, id)
	}
	if f.onFail != nil {
		f.onFail(f)
	}
}
