package netsim

// Fault layer: links can fail permanently or degrade transiently at
// simulated time. A link failure aborts every flow crossing the link
// at that instant; recovery is the owning collective's business (it
// fails, and its caller re-plans over the surviving fabric).
// Everything here reuses the ordinary flow lifecycle
// (detach/activate/markDirty), so the incremental filling engine is
// untouched: a failed link simply no longer carries flows, and a
// degraded link is just a link whose Bandwidth changed between
// recomputes. Degrade never toggles a link between finite and infinite
// bandwidth, which keeps every flow's precomputed finiteLinks subset
// valid.
//
// Determinism: flows crossing a failing link are collected and aborted
// in activation order, so fault handling inherits the (time,
// insertion-seq) total order of the scheduler and stays
// bit-reproducible.

import (
	"fmt"
	"math"

	"github.com/wafernet/fred/internal/critpath"
)

// Failed reports whether the link has permanently failed.
func (l *Link) Failed() bool { return l.failed }

// Fail permanently removes the link from service at the current
// simulated time. Every flow whose route crosses it aborts: an active
// flow at once, a flow in its latency stage or paused when it next
// activates. Failing an already-failed link is a no-op.
func (l *Link) Fail() {
	if l.failed {
		return
	}
	n := l.net
	n.settle()
	l.failed = true
	n.stateEpoch++
	if n.wants(EvLinkFail) {
		n.notify(Event{Kind: EvLinkFail, Now: n.sched.Now(), Link: l})
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
	if n.wants(EvLinkDegrade) {
		n.notify(Event{Kind: EvLinkDegrade, Now: n.sched.Now(), Link: l, Factor: factor})
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
	if n.wants(EvLinkRestore) {
		n.notify(Event{Kind: EvLinkRestore, Now: n.sched.Now(), Link: l})
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

// flowRouteFailed tears an active flow off its (now partly dead) route
// and aborts it. A victim that an earlier victim's OnFail already
// stopped is left alone.
func (n *Network) flowRouteFailed(f *Flow) {
	if f.state != FlowActive {
		return
	}
	// settle already ran (Fail settles before collecting victims).
	n.detach(f)
	n.endStage(f, "active")
	n.markDirty()
	n.abortFlow(f)
}

// abortFlow marks the flow failed and notifies its OnFail callback. The
// flow keeps its remaining byte count for inspection.
func (n *Network) abortFlow(f *Flow) {
	f.state = FlowFailed
	f.finished = n.sched.Now()
	f.rate = 0
	if n.wants(EvFlowAbort) {
		n.notify(Event{Kind: EvFlowAbort, Now: f.finished, Flow: f})
	}
	if n.crit != nil {
		id := n.crit.Add(critpath.Node{
			Kind:     critpath.KindFlow,
			Label:    f.label,
			Start:    f.started,
			End:      f.finished,
			Blame:    critpath.ClampBlame(f.finished-f.started, f.stall),
			BindLink: f.BindLinkName(),
			Failed:   true,
		})
		n.crit.Edge(critpath.EdgeExpand, f.critParent, id)
	}
	if f.onFail != nil {
		f.onFail(f)
	}
}
