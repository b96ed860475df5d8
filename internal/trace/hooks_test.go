package trace_test

import (
	"testing"

	"github.com/wafernet/fred/internal/obs"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/trace"
)

// TestSchedulerCounterKeepsOtherHooks: a flight recorder and a progress
// token watch a scheduler; attaching a trace scheduler counter, and
// then attaching a nil tracer, must leave both firing, whatever order
// the hooks were added in.
func TestSchedulerCounterKeepsOtherHooks(t *testing.T) {
	s := sim.NewScheduler()
	rec := timeseries.NewRecorder(timeseries.Config{Interval: 1, Capacity: 256})
	rec.AttachScheduler(s)
	engine := obs.NewEngine(nil)
	engine.StudyStarted("hooks", 1)
	tok := engine.CellStarted("hooks", 0)
	s.AddEventHook(func(now sim.Time, fired uint64) { tok.SetSimTime(now) })

	tr := trace.NewRecorder()
	trace.AttachSchedulerCounter(s, tr, "scheduler", 1)
	trace.AttachSchedulerCounter(s, nil, "scheduler", 1)

	const events = 100
	for i := 1; i <= events; i++ {
		s.At(sim.Time(i), func() {})
	}
	s.Run()

	// One sample per boundary 0, 1, …, events.
	if got := rec.Len(); got != events+1 {
		t.Errorf("flight recorder took %d samples, want %d", got, events+1)
	}
	if snap := engine.Snapshot(); len(snap.Running) != 1 || snap.Running[0].SimTimeS != events {
		t.Errorf("progress token did not follow the clock: %+v", snap.Running)
	}
	if got := tr.Len(); got != events {
		t.Errorf("trace counter sampled %d events, want %d", got, events)
	}
}
