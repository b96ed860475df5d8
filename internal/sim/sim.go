// Package sim provides a deterministic discrete-event simulation core.
//
// A Scheduler owns a virtual clock and an event queue ordered by
// (time, insertion sequence). Every other simulator in this repository —
// the flow-level network simulator and the training-iteration engine —
// posts callbacks onto a shared Scheduler so that compute, communication
// and I/O events interleave on one timeline.
//
// Time is measured in seconds as float64. All tie-breaking is by
// insertion order, which makes runs fully deterministic for identical
// inputs.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Time is a point on the simulated timeline, in seconds.
type Time = float64

// ErrCanceled is the sentinel matched by errors.Is when a run stopped
// because its bound context was canceled or its deadline expired. The
// concrete error is always a *CanceledError carrying the simulated
// clock and event count at the stop.
var ErrCanceled = errors.New("sim: run canceled")

// CanceledError reports a cooperative cancellation: the scheduler
// observed its bound context done and stopped between events. It
// matches ErrCanceled with errors.Is and unwraps to the context's
// error (context.Canceled or context.DeadlineExceeded).
type CanceledError struct {
	// At is the simulated clock when the cancellation was observed.
	At Time
	// Fired is the number of events executed before stopping.
	Fired uint64
	// Cause is the bound context's error.
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("sim: run canceled at t=%g after %d events: %v", float64(e.At), e.Fired, e.Cause)
}

// Is matches ErrCanceled.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// Unwrap returns the context error that triggered the cancellation.
func (e *CanceledError) Unwrap() error { return e.Cause }

// DefaultCancelCheckEvery is how many events elapse between context
// polls when BindContext is called with checkEvery ≤ 0: frequent
// enough that a runaway simulation stops within microseconds of its
// deadline, rare enough that the hot event loop pays one predictable
// branch per event and an atomic context read only every 4096th.
const DefaultCancelCheckEvery = 4096

// Event is a scheduled callback. It is returned by Scheduler.At so the
// caller can cancel it before it fires. A zero Event may also be
// embedded in a longer-lived value, given its callback once with Bind,
// and armed (and re-armed) in place with Reschedule — the allocation-
// free form the network simulator uses for per-flow events.
type Event struct {
	when   Time
	seq    uint64
	fn     func()
	qslot  int32 // 1 + the event's slot in the scheduler's table while queued; 0 otherwise
	cancel bool
	// depth is the event's causal depth when causal tracking is on: one
	// more than the depth of the event whose callback scheduled it, 0
	// for externally scheduled roots.
	depth uint32
}

// Pending reports whether the event is currently queued to fire. An
// event that has fired, or been canceled, is not pending (it may be
// re-armed with Reschedule).
func (e *Event) Pending() bool { return e.qslot != 0 }

// Bind sets the callback of an event that is not pending — typically
// a zero Event embedded in a longer-lived value — so Reschedule can
// arm it. Binding once per owner and re-arming thereafter costs no
// allocation per firing. Binding a pending event or a nil callback
// panics.
func (e *Event) Bind(fn func()) {
	if fn == nil {
		panic("sim: nil event callback")
	}
	if e.qslot != 0 {
		panic("sim: Bind of a pending event")
	}
	e.fn = fn
}

// entry is one queued event as the heap sees it: its (time, seq) key
// and its slot in the scheduler's event table. Entries hold no
// pointers, so heap moves carry no GC write barrier; the table maps a
// slot back to its *Event, and pos maps it to its heap index.
type entry struct {
	when Time
	seq  uint64
	slot int32
}

func (a entry) less(b entry) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap of entries ordered by (time, seq),
// with an indexed slot table so a queued event can be moved or removed
// in O(log n).
type eventQueue struct {
	heap  []entry
	pos   []int32  // slot -> heap index
	slots []*Event // slot -> event; nil while the slot is free
	free  []int32  // free slots
}

func (q *eventQueue) set(i int, x entry) {
	q.heap[i] = x
	q.pos[x.slot] = int32(i)
}

func (q *eventQueue) up(i int) {
	x := q.heap[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(q.heap[p]) {
			break
		}
		q.set(i, q.heap[p])
		i = p
	}
	q.set(i, x)
}

func (q *eventQueue) down(i int) {
	h := q.heap
	x := h[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(x) {
			break
		}
		q.set(i, h[c])
		i = c
	}
	q.set(i, x)
}

// push queues e under its current (when, seq) key.
func (q *eventQueue) push(e *Event) {
	var slot int32
	if n := len(q.free); n > 0 {
		slot = q.free[n-1]
		q.free = q.free[:n-1]
		q.slots[slot] = e
	} else {
		slot = int32(len(q.slots))
		q.slots = append(q.slots, e)
		q.pos = append(q.pos, 0)
	}
	e.qslot = slot + 1
	q.heap = append(q.heap, entry{when: e.when, seq: e.seq, slot: slot})
	q.up(len(q.heap) - 1)
}

// fix restores heap order after a queued event's key changed.
func (q *eventQueue) fix(e *Event) {
	slot := e.qslot - 1
	i := int(q.pos[slot])
	q.heap[i].when, q.heap[i].seq = e.when, e.seq
	q.up(i)
	q.down(int(q.pos[slot]))
}

// remove dequeues a queued event and releases its slot.
func (q *eventQueue) remove(e *Event) {
	slot := e.qslot - 1
	i := int(q.pos[slot])
	last := len(q.heap) - 1
	if i != last {
		q.set(i, q.heap[last])
	}
	q.heap = q.heap[:last]
	if i != last {
		q.down(i)
		q.up(i)
	}
	q.release(e, slot)
}

// pop dequeues and returns the earliest event.
func (q *eventQueue) pop() *Event {
	slot := q.heap[0].slot
	e := q.slots[slot]
	q.remove(e)
	return e
}

func (q *eventQueue) release(e *Event, slot int32) {
	q.slots[slot] = nil
	q.free = append(q.free, slot)
	e.qslot = 0
}

// Scheduler is a discrete-event scheduler with a virtual clock.
// The zero value is ready to use at time 0.
type Scheduler struct {
	now   Time
	seq   uint64
	queue eventQueue
	fired uint64
	hooks []func(now Time, fired uint64)

	// Causal tracking (EnableCausalTracking): which event scheduled
	// which, as a per-event depth. Off by default — the hot paths pay
	// one predictable branch and nothing else.
	causal   bool
	current  *Event // event whose callback is executing
	maxDepth uint32

	// Cooperative cancellation (BindContext): the bound context is
	// polled every ctxEvery fired events; once done, the scheduler
	// halts between events and Err reports a *CanceledError.
	ctx      context.Context
	ctxEvery uint64
	// err is why the run stopped early: a cancellation, or an event
	// time past the clock's range. Sticky — a stopped scheduler never
	// executes another event.
	err error
}

// BindContext installs cooperative cancellation: Step (and therefore
// Run and RunUntil) polls ctx every checkEvery fired events and, once
// the context is done, stops between events, leaving the clock at the
// last executed event. checkEvery ≤ 0 selects
// DefaultCancelCheckEvery. Cancellation is sticky: after it trips,
// Step returns false forever and Err reports the cancellation, so a
// runaway or hung simulation can be aborted cleanly without killing
// the process. A nil ctx removes the binding.
func (s *Scheduler) BindContext(ctx context.Context, checkEvery int) {
	s.ctx = ctx
	if checkEvery <= 0 {
		checkEvery = DefaultCancelCheckEvery
	}
	s.ctxEvery = uint64(checkEvery)
}

// Err reports why the scheduler stopped early: nil while healthy, a
// *CanceledError (matching ErrCanceled via errors.Is) once the bound
// context tripped, or an error once an event was asked for at a time
// the clock cannot reach (+Inf or NaN — a finish time that overflowed).
// Drivers check it after Run/RunUntil returns — the simulated state at
// that point is mid-flight and must be discarded.
func (s *Scheduler) Err() error { return s.err }

// unreachable stops the run when an event is asked for at time t past
// the float64 range: such an event could only fire with the clock at
// +Inf, where every later event would fire again at the same instant.
func (s *Scheduler) unreachable(t Time) bool {
	if t <= math.MaxFloat64 {
		return false
	}
	if s.err == nil {
		s.err = fmt.Errorf("sim: event at t=%g is past the simulated clock's range (now t=%g after %d events)",
			t, s.now, s.fired)
	}
	return true
}

// EnableCausalTracking turns on event-causality depth tracking: every
// event scheduled from inside another event's callback records a depth
// one greater than its scheduler's, and the scheduler tracks the
// maximum — the length of the deepest cause-effect chain in the run.
// Tracking cannot be disabled once enabled (depths already assigned
// would be inconsistent); it is per-Scheduler and off by default.
func (s *Scheduler) EnableCausalTracking() { s.causal = true }

// MaxCausalDepth returns the deepest causal chain observed so far
// (0 when tracking is off or no chained event has been scheduled).
func (s *Scheduler) MaxCausalDepth() uint64 { return uint64(s.maxDepth) }

// stampDepth assigns a newly armed event's causal depth from the
// currently executing event.
func (s *Scheduler) stampDepth(e *Event) {
	e.depth = 0
	if s.current != nil {
		e.depth = s.current.depth + 1
		if e.depth > s.maxDepth {
			s.maxDepth = e.depth
		}
	}
}

// AddEventHook appends an observer to the scheduler's hook list:
// after each event callback returns, every hook runs in the order it
// was added, with the clock and the cumulative fired count. Several
// observability layers — the trace scheduler counter, the time-series
// flight recorder, the progress plane — can therefore watch one
// scheduler without knowing about each other, and none can displace
// another. Hooks must not mutate the scheduler. A nil h is ignored.
func (s *Scheduler) AddEventHook(h func(now Time, fired uint64)) {
	if h != nil {
		s.hooks = append(s.hooks, h)
	}
}

// NewScheduler returns a scheduler with the clock at zero.
func NewScheduler() *Scheduler { return &Scheduler{} }

// Now returns the current simulated time.
func (s *Scheduler) Now() Time { return s.now }

// Fired returns the number of events executed so far.
func (s *Scheduler) Fired() uint64 { return s.fired }

// Pending returns the number of events waiting in the queue.
func (s *Scheduler) Pending() int { return len(s.queue.heap) }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: it always indicates a simulator bug rather than a recoverable
// condition. A time past the float64 range (+Inf, NaN) stops the run
// with an error instead (see Err): huge but valid inputs overflow
// there.
func (s *Scheduler) At(t Time, fn func()) *Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %g before now %g", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	if s.unreachable(t) {
		return &Event{when: t, fn: fn}
	}
	e := &Event{when: t, seq: s.seq, fn: fn}
	s.seq++
	if s.causal {
		s.stampDepth(e)
	}
	s.queue.push(e)
	return e
}

// After schedules fn to run d seconds from now.
func (s *Scheduler) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %g", d))
	}
	return s.At(s.now+d, fn)
}

// Reschedule re-arms e to fire at absolute time t with a fresh
// insertion sequence, exactly as if the event had been Canceled and a
// new one created with At(t, fn) for the same callback — but without
// allocating. Pending events are moved in place; fired or canceled
// events are re-enqueued. The event must have been produced by At or
// After, or given its callback with Bind. Hot paths that re-time one event per state change (the
// network simulator's flow-completion events) use this to stay
// allocation-free while preserving the (time, seq) tie-break order a
// cancel-and-recreate would produce.
func (s *Scheduler) Reschedule(e *Event, t Time) {
	if e == nil || e.fn == nil {
		panic("sim: Reschedule of nil or uninitialized event")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: rescheduling event at %g before now %g", t, s.now))
	}
	if s.unreachable(t) {
		return
	}
	e.when = t
	e.seq = s.seq
	s.seq++
	e.cancel = false
	if s.causal {
		s.stampDepth(e)
	}
	if e.qslot != 0 {
		s.queue.fix(e)
	} else {
		s.queue.push(e)
	}
}

// Cancel removes a pending event. Canceling an already-fired or
// already-canceled event is a no-op.
func (s *Scheduler) Cancel(e *Event) {
	if e == nil || e.cancel || e.qslot == 0 {
		if e != nil {
			e.cancel = true
		}
		return
	}
	e.cancel = true
	s.queue.remove(e)
}

// Step executes the single earliest pending event, advancing the clock
// to its timestamp. It reports false when the queue is empty.
func (s *Scheduler) Step() bool {
	if len(s.queue.heap) == 0 {
		return false
	}
	if s.err != nil {
		return false
	}
	if s.ctx != nil && s.fired%s.ctxEvery == 0 {
		if cause := s.ctx.Err(); cause != nil {
			s.err = &CanceledError{At: s.now, Fired: s.fired, Cause: cause}
			return false
		}
	}
	e := s.queue.pop()
	s.now = e.when
	s.fired++
	if s.causal {
		s.current = e
		e.fn()
		s.current = nil
	} else {
		e.fn()
	}
	for _, h := range s.hooks {
		h(s.now, s.fired)
	}
	return true
}

// Run executes events until the queue drains and returns the final
// clock value.
func (s *Scheduler) Run() Time {
	for s.Step() {
	}
	return s.now
}

// RunUntil executes every event with a timestamp ≤ deadline and then
// advances the clock to the deadline, whether or not later events
// remain queued, so the returned time always equals the deadline (or
// the current clock, if it is already past it). A run stopped by an
// error (see Err) leaves the clock at the last executed event.
func (s *Scheduler) RunUntil(deadline Time) Time {
	for s.err == nil && len(s.queue.heap) > 0 && s.queue.heap[0].when <= deadline {
		s.Step()
	}
	if s.err == nil && s.now < deadline {
		s.now = deadline
	}
	return s.now
}
