package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSchedulerZeroValue(t *testing.T) {
	var s Scheduler
	if s.Now() != 0 {
		t.Fatalf("Now() = %g, want 0", s.Now())
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending() = %d, want 0", s.Pending())
	}
	if s.Step() {
		t.Fatal("Step() on empty queue = true, want false")
	}
}

func TestEventOrderByTime(t *testing.T) {
	s := NewScheduler()
	var order []int
	s.At(3, func() { order = append(order, 3) })
	s.At(1, func() { order = append(order, 1) })
	s.At(2, func() { order = append(order, 2) })
	s.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventTieBreakByInsertion(t *testing.T) {
	s := NewScheduler()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { order = append(order, i) })
	}
	s.Run()
	for i := range order {
		if order[i] != i {
			t.Fatalf("tie-break order = %v, want insertion order", order)
		}
	}
}

func TestClockAdvances(t *testing.T) {
	s := NewScheduler()
	s.At(2.5, func() {
		if s.Now() != 2.5 {
			t.Errorf("Now() inside event = %g, want 2.5", s.Now())
		}
	})
	end := s.Run()
	if end != 2.5 {
		t.Fatalf("Run() = %g, want 2.5", end)
	}
}

func TestAfterUsesRelativeTime(t *testing.T) {
	s := NewScheduler()
	var fired Time = -1
	s.At(10, func() {
		s.After(5, func() { fired = s.Now() })
	})
	s.Run()
	if fired != 15 {
		t.Fatalf("After(5) at t=10 fired at %g, want 15", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := NewScheduler()
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

// TestUnreachableTimeStopsRun: an event past the float64 range (a
// finish time that overflowed to +Inf, or NaN) stops the run with an
// error after the current event, instead of queueing.
func TestUnreachableTimeStopsRun(t *testing.T) {
	for _, bad := range []Time{math.Inf(1), math.NaN()} {
		s := NewScheduler()
		fired := 0
		s.At(1, func() {
			fired++
			e := s.After(bad, func() { t.Errorf("event at %g fired", bad) })
			s.Reschedule(e, bad)
		})
		s.At(1, func() { fired++ })
		s.At(2, func() { t.Error("run went on after an unreachable event") })
		if end := s.Run(); end != 1 || fired != 1 {
			t.Errorf("t=%g: run ended at %g with %d events fired, want 1 and 1", bad, end, fired)
		}
		if s.Err() == nil {
			t.Errorf("t=%g: no error", bad)
		}
		if s.Run(); s.Now() != 1 {
			t.Errorf("t=%g: a second Run moved the clock to %g", bad, s.Now())
		}
	}
}

func TestNilCallbackPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("nil callback did not panic")
		}
	}()
	s.At(1, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestCancelPreventsFiring(t *testing.T) {
	s := NewScheduler()
	fired := false
	e := s.At(1, func() { fired = true })
	s.Cancel(e)
	s.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if !e.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
}

func TestCancelIsIdempotent(t *testing.T) {
	s := NewScheduler()
	e := s.At(1, func() {})
	s.Cancel(e)
	s.Cancel(e) // must not panic
	s.Cancel(nil)
	s.Run()
}

func TestCancelFiredEventNoop(t *testing.T) {
	s := NewScheduler()
	e := s.At(1, func() {})
	s.Run()
	s.Cancel(e) // must not panic
}

func TestCancelMiddleOfHeap(t *testing.T) {
	s := NewScheduler()
	var order []int
	events := make([]*Event, 0, 20)
	for i := 0; i < 20; i++ {
		i := i
		events = append(events, s.At(Time(i), func() { order = append(order, i) }))
	}
	// Cancel every third event.
	for i := 0; i < 20; i += 3 {
		s.Cancel(events[i])
	}
	s.Run()
	for _, v := range order {
		if v%3 == 0 {
			t.Fatalf("canceled event %d fired", v)
		}
	}
	if !sort.IntsAreSorted(order) {
		t.Fatalf("order not sorted after cancels: %v", order)
	}
}

func TestRunUntilStopsAtDeadline(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	for _, tm := range []Time{1, 2, 3, 4, 5} {
		tm := tm
		s.At(tm, func() { fired = append(fired, tm) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %v, want 3 events", fired)
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending() = %d, want 2", s.Pending())
	}
	s.Run()
	if len(fired) != 5 {
		t.Fatalf("resumed Run fired %v, want 5 events", fired)
	}
}

func TestRunUntilAdvancesClockWhenIdle(t *testing.T) {
	s := NewScheduler()
	s.RunUntil(7)
	if s.Now() != 7 {
		t.Fatalf("Now() = %g after idle RunUntil(7), want 7", s.Now())
	}
}

func TestHaltStopsRun(t *testing.T) {
	s := NewScheduler()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i), func() {
			count++
			if count == 4 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 4 {
		t.Fatalf("Halt: executed %d events, want 4", count)
	}
	if s.Pending() != 6 {
		t.Fatalf("Pending() = %d after halt, want 6", s.Pending())
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	s := NewScheduler()
	depth := 0
	var grow func()
	grow = func() {
		depth++
		if depth < 50 {
			s.After(1, grow)
		}
	}
	s.At(0, grow)
	end := s.Run()
	if depth != 50 {
		t.Fatalf("chained events ran %d times, want 50", depth)
	}
	if end != 49 {
		t.Fatalf("end time = %g, want 49", end)
	}
}

func TestFiredCounter(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 17; i++ {
		s.At(Time(i), func() {})
	}
	s.Run()
	if s.Fired() != 17 {
		t.Fatalf("Fired() = %d, want 17", s.Fired())
	}
}

// Property: for any set of event times, execution order is sorted by
// time, with ties broken by insertion order.
func TestPropertyExecutionOrderSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		count := int(n%64) + 1
		type rec struct {
			tm  Time
			seq int
		}
		var got []rec
		for i := 0; i < count; i++ {
			tm := Time(rng.Intn(16)) // few distinct times → many ties
			i := i
			s.At(tm, func() { got = append(got, rec{tm, i}) })
		}
		s.Run()
		if len(got) != count {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].tm < got[i-1].tm {
				return false
			}
			if got[i].tm == got[i-1].tm && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling an arbitrary subset never perturbs the relative
// order of the survivors.
func TestPropertyCancelPreservesOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewScheduler()
		n := 40
		var got []int
		events := make([]*Event, n)
		times := make([]Time, n)
		for i := 0; i < n; i++ {
			times[i] = Time(rng.Intn(10))
			i := i
			events[i] = s.At(times[i], func() { got = append(got, i) })
		}
		canceled := make(map[int]bool)
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				s.Cancel(events[i])
				canceled[i] = true
			}
		}
		s.Run()
		for _, id := range got {
			if canceled[id] {
				return false
			}
		}
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if times[a] > times[b] || (times[a] == times[b] && a > b) {
				return false
			}
		}
		return len(got) == n-len(canceled)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Regression: RunUntil used to return with the clock stuck at the last
// fired event whenever events remained beyond the deadline, so the
// clock only reached the deadline on an empty queue. The documented
// contract is that the clock always advances to the deadline.
func TestRunUntilAdvancesClockWithPendingEvents(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.At(1, func() { fired++ })
	s.At(10, func() { fired++ })
	if got := s.RunUntil(5); got != 5 {
		t.Fatalf("RunUntil(5) = %g, want 5", got)
	}
	if s.Now() != 5 {
		t.Fatalf("Now() = %g after RunUntil(5) with a pending event at 10, want 5", s.Now())
	}
	if fired != 1 || s.Pending() != 1 {
		t.Fatalf("fired %d events with %d pending, want 1 and 1", fired, s.Pending())
	}
	// The remaining event is untouched and fires on resume.
	s.Run()
	if fired != 2 || s.Now() != 10 {
		t.Fatalf("after resume: fired %d at %g, want 2 at 10", fired, s.Now())
	}
}

func TestRunUntilHaltLeavesClockAtEvent(t *testing.T) {
	s := NewScheduler()
	s.At(2, func() { s.Halt() })
	s.At(3, func() {})
	if got := s.RunUntil(9); got != 2 {
		t.Fatalf("halted RunUntil(9) = %g, want clock left at halting event 2", got)
	}
}

func TestPendingLifecycle(t *testing.T) {
	s := NewScheduler()
	e := s.At(1, func() {})
	if !e.Pending() {
		t.Fatal("freshly scheduled event not pending")
	}
	s.Cancel(e)
	if e.Pending() {
		t.Fatal("canceled event still pending")
	}
	f := s.At(2, func() {})
	s.Run()
	if f.Pending() {
		t.Fatal("fired event still pending")
	}
}

func TestRescheduleMovesPendingEvent(t *testing.T) {
	s := NewScheduler()
	var fired []Time
	e := s.At(5, func() { fired = append(fired, s.Now()) })
	s.At(1, func() { s.Reschedule(e, 3) })
	s.Run()
	if len(fired) != 1 || fired[0] != 3 {
		t.Fatalf("rescheduled event fired at %v, want [3]", fired)
	}
}

func TestRescheduleRearmsFiredAndCanceledEvents(t *testing.T) {
	s := NewScheduler()
	count := 0
	e := s.At(1, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("fired %d, want 1", count)
	}
	s.Reschedule(e, 2)
	if !e.Pending() {
		t.Fatal("re-armed event not pending")
	}
	s.Run()
	if count != 2 {
		t.Fatalf("re-armed event: fired %d, want 2", count)
	}
	s.Cancel(e)
	s.Reschedule(e, 3)
	if e.Canceled() {
		t.Fatal("Reschedule left the cancel flag set")
	}
	s.Run()
	if count != 3 {
		t.Fatalf("re-armed canceled event: fired %d, want 3", count)
	}
}

// Reschedule must be indistinguishable from Cancel + At for tie-break
// purposes: the moved event takes a fresh insertion sequence, so it
// fires after any event already queued at the same time.
func TestRescheduleTakesFreshSequence(t *testing.T) {
	s := NewScheduler()
	var order []string
	e := s.At(5, func() { order = append(order, "moved") })
	s.At(5, func() { order = append(order, "staying") })
	s.At(1, func() { s.Reschedule(e, 5) })
	s.Run()
	if len(order) != 2 || order[0] != "staying" || order[1] != "moved" {
		t.Fatalf("order = %v, want [staying moved]", order)
	}
}

func TestReschedulePastPanics(t *testing.T) {
	s := NewScheduler()
	e := s.At(20, func() {})
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("rescheduling into the past did not panic")
			}
		}()
		s.Reschedule(e, 5)
	})
	s.Run()
}

func TestRescheduleNilPanics(t *testing.T) {
	s := NewScheduler()
	defer func() {
		if recover() == nil {
			t.Error("Reschedule(nil) did not panic")
		}
	}()
	s.Reschedule(nil, 1)
}

// Property: a sequence of Reschedule calls behaves exactly like the
// equivalent Cancel + At sequence — same firing times, same tie-break
// order — across random move patterns.
func TestPropertyRescheduleMatchesCancelRecreate(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 12
		moves := 24
		type op struct {
			idx int
			at  Time
		}
		ops := make([]op, moves)
		for i := range ops {
			ops[i] = op{idx: rng.Intn(n), at: Time(10 + rng.Intn(10))}
		}
		initial := make([]Time, n)
		for i := range initial {
			initial[i] = Time(10 + rng.Intn(10))
		}
		run := func(useReschedule bool) []int {
			s := NewScheduler()
			var order []int
			events := make([]*Event, n)
			fns := make([]func(), n)
			for i := 0; i < n; i++ {
				i := i
				fns[i] = func() { order = append(order, i) }
				events[i] = s.At(initial[i], fns[i])
			}
			for i, o := range ops {
				o := o
				i := i
				s.At(Time(i)/Time(moves)*9, func() {
					if useReschedule {
						s.Reschedule(events[o.idx], o.at)
					} else {
						s.Cancel(events[o.idx])
						events[o.idx] = s.At(o.at, fns[o.idx])
					}
				})
			}
			s.Run()
			return order
		}
		a := run(true)
		b := run(false)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestEventHooks: every added hook runs after each event, in the
// order it was added, with the clock and the cumulative fired count.
func TestEventHooks(t *testing.T) {
	s := NewScheduler()
	type sample struct {
		hook  int
		now   Time
		fired uint64
	}
	var got []sample
	for h := 0; h < 2; h++ {
		h := h
		s.AddEventHook(func(now Time, fired uint64) { got = append(got, sample{h, now, fired}) })
	}
	s.AddEventHook(nil) // ignored
	s.At(1, func() {})
	s.At(4, func() {})
	s.Run()
	want := []sample{{0, 1, 1}, {1, 1, 1}, {0, 4, 2}, {1, 4, 2}}
	if len(got) != len(want) {
		t.Fatalf("hook calls = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hook calls = %v, want %v", got, want)
		}
	}
}

// TestBoundEmbeddedEvent: a zero Event embedded in a longer-lived
// value, given its callback once with Bind, is armed and re-armed in
// place by Reschedule and behaves like an event made by At — same
// ordering, cancellation and pending state — with no allocation per
// arming.
func TestBoundEmbeddedEvent(t *testing.T) {
	type owner struct{ ev Event }
	s := NewScheduler()
	o := &owner{}
	if o.ev.Pending() {
		t.Fatal("zero Event reports pending")
	}
	var order []string
	o.ev.Bind(func() { order = append(order, "bound") })
	s.At(1, func() { order = append(order, "at") })
	s.Reschedule(&o.ev, 1) // same time, later sequence: fires second
	if !o.ev.Pending() || o.ev.When() != 1 {
		t.Fatalf("armed event pending %v at %v, want pending at 1", o.ev.Pending(), o.ev.When())
	}
	s.Run()
	if len(order) != 2 || order[0] != "at" || order[1] != "bound" {
		t.Fatalf("fire order %v, want [at bound]", order)
	}
	if o.ev.Pending() {
		t.Fatal("fired event still pending")
	}
	s.Reschedule(&o.ev, 3)
	s.Cancel(&o.ev)
	if o.ev.Pending() || !o.ev.Canceled() || s.Pending() != 0 {
		t.Fatal("Cancel left the bound event queued")
	}
	s.Reschedule(&o.ev, 4)
	s.Run()
	if len(order) != 3 || s.Now() != 4 {
		t.Fatalf("bound event fired %d times, clock %v; want a third firing at 4", len(order)-2, s.Now())
	}
	o.ev.Bind(func() {})
	if allocs := testing.AllocsPerRun(100, func() {
		s.Reschedule(&o.ev, s.Now()+1)
		s.Step()
	}); allocs != 0 {
		t.Fatalf("re-arming a bound event allocates %v per firing", allocs)
	}
	s.Reschedule(&o.ev, s.Now()+1)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Bind of a pending event did not panic")
			}
		}()
		o.ev.Bind(func() {})
	}()
}
