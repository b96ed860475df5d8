package faults

import (
	"fmt"
	"math"

	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// Injector applies a fault plan to a network by scheduling each event
// on the simulation's event queue. Events become ordinary scheduler
// events, so they interleave deterministically with the traffic they
// disrupt — the whole run stays bit-reproducible.
type Injector struct {
	net   *netsim.Network
	sched *sim.Scheduler
	// onSwitchFail handles SwitchFail events, which only the topology
	// layer can interpret.
	onSwitchFail func(id int)

	mLinksFailed    *metrics.Series
	mLinksDegraded  *metrics.Series
	mLinksRestored  *metrics.Series
	mSwitchesFailed *metrics.Series
	mNPUsDropped    *metrics.Series
}

// NewInjector returns an injector for the network.
func NewInjector(net *netsim.Network) *Injector {
	return &Injector{net: net, sched: net.Scheduler()}
}

// OnSwitchFail registers the topology hook that realises SwitchFail
// events (the network itself has no switch objects). Scheduling a plan
// containing SwitchFail events without a hook panics — silently
// dropping faults would make the study lie.
func (inj *Injector) OnSwitchFail(fn func(id int)) *Injector {
	inj.onSwitchFail = fn
	return inj
}

// SetMetrics registers the fault/* series on the registry: cumulative
// counts of each applied event class.
func (inj *Injector) SetMetrics(reg *metrics.Registry) *Injector {
	if reg == nil {
		inj.mLinksFailed, inj.mLinksDegraded, inj.mLinksRestored = nil, nil, nil
		inj.mSwitchesFailed, inj.mNPUsDropped = nil, nil
		return inj
	}
	inj.mLinksFailed = reg.Counter("fault/links_failed", "")
	inj.mLinksDegraded = reg.Counter("fault/links_degraded", "")
	inj.mLinksRestored = reg.Counter("fault/links_restored", "")
	inj.mSwitchesFailed = reg.Counter("fault/switches_failed", "")
	inj.mNPUsDropped = reg.Counter("fault/npus_dropped", "")
	return inj
}

// Schedule validates the plan against the network — link targets in
// range, no degrade of a contention-free link, a hook for switch
// failures — and arms one scheduler event per fault event (plus one
// per recovery). Events at or before the current simulated time apply
// on the scheduler's next step.
func (inj *Injector) Schedule(p Plan) error {
	if err := p.Validate(); err != nil {
		return err
	}
	for i, e := range p.Events {
		if e.Kind == SwitchFail && inj.onSwitchFail == nil {
			return fmt.Errorf("faults: plan contains switch-fail events but no OnSwitchFail hook is set")
		}
		if e.Kind != LinkFail && e.Kind != LinkDegrade {
			continue
		}
		if e.Target >= inj.net.NumLinks() {
			return fmt.Errorf("faults: event %d: link %d out of range [0, %d)", i, e.Target, inj.net.NumLinks())
		}
		if e.Kind == LinkDegrade && math.IsInf(inj.net.Link(netsim.LinkID(e.Target)).Bandwidth, 1) {
			return fmt.Errorf("faults: event %d: cannot degrade contention-free link %d", i, e.Target)
		}
	}
	now := inj.sched.Now()
	for _, e := range p.Events {
		e := e
		delay := e.At - now
		if delay < 0 {
			delay = 0
		}
		inj.sched.After(delay, func() { inj.apply(e) })
	}
	return nil
}

func count(s *metrics.Series) {
	if s != nil {
		s.Add(1)
	}
}

// apply fires one event. Faults compose: events targeting an
// already-failed link are no-ops rather than errors, so overlapping
// random plans (an NPU drop racing a link failure on the same port)
// stay valid.
func (inj *Injector) apply(e Event) {
	switch e.Kind {
	case LinkFail:
		l := inj.net.Link(netsim.LinkID(e.Target))
		if !l.Failed() {
			l.Fail()
			count(inj.mLinksFailed)
		}
	case LinkDegrade:
		l := inj.net.Link(netsim.LinkID(e.Target))
		if l.Failed() {
			return
		}
		l.Degrade(e.Factor)
		count(inj.mLinksDegraded)
		if e.Recover > 0 {
			inj.sched.After(e.Recover, func() {
				if !l.Failed() {
					l.Restore()
					count(inj.mLinksRestored)
				}
			})
		}
	case SwitchFail:
		inj.onSwitchFail(e.Target)
		count(inj.mSwitchesFailed)
	case NPUDrop:
		if inj.net.FailNode(netsim.NodeID(e.Target)) > 0 {
			count(inj.mNPUsDropped)
		}
	default:
		panic(fmt.Sprintf("faults: unknown event kind %d", int(e.Kind)))
	}
}
