package training

import (
	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
)

// arbiter starts collective schedules on the fabric, applying the
// topology's concurrency discipline.
type arbiter interface {
	// submit queues a schedule under a communication class; done fires
	// when it completes, with the finished op (nil for empty schedules,
	// which complete via a zero-delay event so callers may rely on
	// asynchronous completion). The op carries the blame decomposition
	// when critpath recording is enabled.
	submit(class Class, s collective.Schedule, done func(*collective.Op))
}

// meshArbiter models a packet-switched mesh: every operation starts
// immediately and shares link bandwidth max-min fairly with everything
// else in flight.
type meshArbiter struct {
	net *netsim.Network
}

func (a meshArbiter) submit(_ Class, s collective.Schedule, done func(*collective.Op)) {
	if s.Empty() {
		a.net.Scheduler().After(0, func() { done(nil) })
		return
	}
	collective.Start(a.net, s, done)
}

// fredArbiter models FRED's circuit discipline (Section 5.4): the
// fabric executes one communication class at a time — the highest
// priority class with pending work — preempting lower classes.
// Operations of the same class run concurrently (the switch routes
// their flows together). Streaming and input-load traffic bypass the
// arbiter: it rides dedicated virtual circuits alongside collectives.
type fredArbiter struct {
	net     *netsim.Network
	running [numClasses][]*collective.Op
	paused  [numClasses][]*collective.Op
	pending [numClasses][]pendingOp
	active  Class
	hasWork bool
}

type pendingOp struct {
	s    collective.Schedule
	done func(*collective.Op)
}

// arbitrated reports whether the class competes for the switch
// circuits; bulk streaming classes ride separate VCs.
func arbitrated(c Class) bool { return c == ClassMP || c == ClassPP || c == ClassDP }

func (a *fredArbiter) submit(class Class, s collective.Schedule, done func(*collective.Op)) {
	if s.Empty() {
		a.net.Scheduler().After(0, func() { done(nil) })
		return
	}
	if !arbitrated(class) {
		collective.Start(a.net, s, done)
		return
	}
	a.pending[class] = append(a.pending[class], pendingOp{s, done})
	a.reevaluate()
}

// highestActive returns the highest-priority arbitrated class with any
// work (running, paused or pending).
func (a *fredArbiter) highestActive() (Class, bool) {
	for _, c := range []Class{ClassMP, ClassPP, ClassDP} {
		if len(a.running[c]) > 0 || len(a.paused[c]) > 0 || len(a.pending[c]) > 0 {
			return c, true
		}
	}
	return 0, false
}

func (a *fredArbiter) reevaluate() {
	top, ok := a.highestActive()
	if !ok {
		a.hasWork = false
		return
	}
	if a.hasWork && top != a.active {
		// Preempt the currently running class if it lost priority.
		for _, op := range a.running[a.active] {
			op.Pause()
		}
		a.paused[a.active] = append(a.paused[a.active], a.running[a.active]...)
		a.running[a.active] = nil
	}
	a.active = top
	a.hasWork = true
	// Resume paused ops of the active class.
	for _, op := range a.paused[top] {
		op.Resume()
	}
	a.running[top] = append(a.running[top], a.paused[top]...)
	a.paused[top] = nil
	// Start pending ops of the active class.
	for _, p := range a.pending[top] {
		p := p
		var op *collective.Op
		op = collective.Start(a.net, p.s, func(*collective.Op) {
			a.finish(top, op, p.done)
		})
		a.running[top] = append(a.running[top], op)
	}
	a.pending[top] = nil
}

func (a *fredArbiter) finish(class Class, op *collective.Op, done func(*collective.Op)) {
	ops := a.running[class]
	for i, o := range ops {
		if o == op {
			a.running[class] = append(ops[:i], ops[i+1:]...)
			break
		}
	}
	done(op)
	a.reevaluate()
}
