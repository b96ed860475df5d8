package training

import (
	"slices"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// opRec is one submitted collective operation: the collective node it
// belongs to, its class and schedule, when and under which id it was
// submitted, and its op once started (nil for an empty schedule).
type opRec struct {
	node  int
	class Class
	s     collective.Schedule
	t0    sim.Time
	id    uint64
	op    *collective.Op
}

// arbiter starts collective schedules on the fabric under FRED's
// circuit discipline (Section 5.4) when circuit is set: the fabric
// executes one communication class at a time — the highest priority
// class with pending work — preempting lower classes. Operations of
// the same class run concurrently (the switch routes their flows
// together). Streaming and input-load traffic bypass arbitration: it
// rides dedicated virtual circuits alongside collectives. Without
// circuit (a packet-switched mesh) every operation starts at once and
// shares link bandwidth max-min fairly with everything else in flight.
//
// done fires once per submission, with its op (nil for an empty
// schedule, which completes via a zero-delay event so callers may rely
// on asynchronous completion). The op carries the blame decomposition
// when critpath recording is enabled.
type arbiter struct {
	net     *netsim.Network
	circuit bool
	done    func(opRec)
	// opEnded and emptyDone are the completion methods, bound once:
	// every started op reports to opEnded, every empty schedule's
	// zero-delay event to emptyDone, which takes the front of empty.
	opEnded   func(*collective.Op)
	emptyDone func()
	empty     []opRec
	running   [numClasses][]opRec
	paused    [numClasses][]opRec
	pending   [numClasses][]opRec
	active    Class
}

func newArbiter(net *netsim.Network, circuit bool, done func(opRec)) *arbiter {
	a := &arbiter{net: net, circuit: circuit, done: done}
	a.opEnded, a.emptyDone = a.finish, a.finishEmpty
	return a
}

// arbitrated reports whether the class competes for the switch
// circuits; bulk streaming classes ride separate VCs.
func (a *arbiter) arbitrated(c Class) bool {
	return a.circuit && (c == ClassMP || c == ClassPP || c == ClassDP)
}

func (a *arbiter) submit(r opRec) {
	if r.s.Empty() {
		a.empty = append(a.empty, r)
		a.net.Scheduler().After(0, a.emptyDone)
		return
	}
	if !a.arbitrated(r.class) {
		a.start(r)
		return
	}
	a.pending[r.class] = append(a.pending[r.class], r)
	a.reevaluate()
}

func (a *arbiter) start(r opRec) {
	r.op = collective.Start(a.net, r.s, a.opEnded)
	a.running[r.class] = append(a.running[r.class], r)
}

// reevaluate hands the fabric to the highest-priority arbitrated class
// with any work (running, paused or pending).
func (a *arbiter) reevaluate() {
	top := ClassMP
	for len(a.running[top])+len(a.paused[top])+len(a.pending[top]) == 0 {
		if top++; top > ClassDP {
			return
		}
	}
	if top != a.active {
		// Preempt the currently running class if it lost priority (a
		// no-op when the fabric was idle: nothing of it still runs).
		for _, r := range a.running[a.active] {
			r.op.Pause()
		}
		a.paused[a.active] = append(a.paused[a.active], a.running[a.active]...)
		a.running[a.active] = a.running[a.active][:0]
	}
	a.active = top
	// Resume paused ops of the active class.
	for _, r := range a.paused[top] {
		r.op.Resume()
	}
	a.running[top] = append(a.running[top], a.paused[top]...)
	a.paused[top] = a.paused[top][:0]
	// Start pending ops of the active class.
	for _, r := range a.pending[top] {
		a.start(r)
	}
	a.pending[top] = a.pending[top][:0]
}

// finish is every started op's completion: it drops the op from the
// running list of its class, reports it, and lets the next class run
// once an arbitrated one drained.
func (a *arbiter) finish(op *collective.Op) {
	for c := range a.running {
		for i, r := range a.running[c] {
			if r.op == op {
				a.running[c] = slices.Delete(a.running[c], i, i+1)
				a.done(r)
				if a.arbitrated(r.class) {
					a.reevaluate()
				}
				return
			}
		}
	}
}

// finishEmpty completes the oldest empty schedule: the zero-delay
// events fire in submission order.
func (a *arbiter) finishEmpty() {
	r := a.empty[0]
	a.empty = a.empty[:copy(a.empty, a.empty[1:])]
	a.done(r)
}
