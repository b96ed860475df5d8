package sim

import "testing"

func TestCausalTrackingDepth(t *testing.T) {
	s := NewScheduler()
	if s.causal {
		t.Fatal("causal tracking on by default")
	}
	s.EnableCausalTracking()
	if !s.causal {
		t.Fatal("EnableCausalTracking did not stick")
	}
	// A chain of events each scheduling the next: depth grows by one per
	// link, and root events scheduled from outside any event stay at 0.
	const chain = 5
	var grow func(k int)
	grow = func(k int) {
		if k == 0 {
			return
		}
		s.After(1, func() { grow(k - 1) })
	}
	s.After(0, func() { grow(chain) })
	s.After(2, func() {}) // root event mid-run, depth 0
	s.Run()
	// The kickoff event is depth 0; each chained event adds one.
	if got := s.MaxCausalDepth(); got != chain {
		t.Fatalf("MaxCausalDepth = %d, want %d", got, chain)
	}
}

func TestCausalTrackingReschedule(t *testing.T) {
	s := NewScheduler()
	s.EnableCausalTracking()
	var e *Event
	s.After(0, func() {
		// Rescheduling from inside an event re-stamps the causal parent.
		e = s.After(10, func() {})
		s.After(1, func() { s.Reschedule(e, 2) })
	})
	s.Run()
	// kickoff(0) -> rescheduler(1) -> e(2): depth 2.
	if got := s.MaxCausalDepth(); got != 2 {
		t.Fatalf("MaxCausalDepth = %d, want 2", got)
	}
}

func TestCausalTrackingOffIsFree(t *testing.T) {
	// With tracking off the scheduler must never stamp depths.
	s := NewScheduler()
	s.After(0, func() { s.After(1, func() {}) })
	s.Run()
	if got := s.MaxCausalDepth(); got != 0 {
		t.Fatalf("MaxCausalDepth = %d with tracking off, want 0", got)
	}
}
