// Package trace is the simulator's observability layer: a Tracer
// records spans, instants and counter samples on the simulated clock,
// and a Recorder exports them as Chrome trace-event JSON loadable in
// Perfetto (https://ui.perfetto.dev) or chrome://tracing.
//
// The layer is zero-cost when disabled. A network's trace output is an
// observer on its engine's subscriber list (netobs.AttachTracer),
// attached only when tracing, and the training engine holds a Tracer
// that is nil by default and is checked before any event is
// assembled, so untraced runs pay a single predictable branch per
// hook.
//
// Event model (mirroring the Chrome trace-event format):
//
//   - Span: a duration on a named synchronous track (one Perfetto
//     thread track per name). Used for strictly nested work such as
//     the whole-iteration span emitted by cmd/fredtrain.
//   - AsyncSpan / AsyncInstant: a duration or point on an async track
//     keyed by (category, id). Concurrent work — netsim flow
//     lifecycles, overlapping collective operations — uses these so
//     overlapping intervals render correctly.
//   - Instant: a point event on a synchronous track.
//   - Counter: a sampled numeric series, e.g. per-link utilization.
//
// All timestamps are sim.Time seconds; the Recorder converts them to
// the format's microseconds on export. Emission order is required to
// be deterministic: the simulators emit from deterministic event
// callbacks and iterate ordered slices (never maps) when producing
// trace events, so two runs of the same configuration produce
// byte-identical traces (asserted by the experiments determinism
// test).
//
// Conventions used by the simulators (consumed by cmd/fredtrace):
//
//   - category "flow": netsim flow lifecycle stages ("latency",
//     "active", "paused") plus "done"/"canceled" instants; every
//     record carries a "label" arg.
//   - category "comm": one span per collective operation submitted to
//     the training arbiter, named "<class> <schedule>" with "class",
//     "strategy" and "bytes" args.
//   - counter track "link/<name>", series "util": instantaneous
//     utilization (sum of flow rates / bandwidth) of one link.
//   - counter track "net", series "active_flows": flows holding
//     bandwidth.
//   - counter track "scheduler", series "events": cumulative events
//     fired (see AttachSchedulerCounter).
//
// Every network records into a Recorder of its own under the bare
// names above. When many independent simulations merge into one trace
// — the experiment drivers build a fresh network per run — the merge
// applies each network's name (Recorder.Move): the categories and
// tracks become "flow/<net>", "comm/<net>", "link/<net>/<name>",
// "net/<net>" and "scheduler/<net>", keeping runs whose clocks all
// start at zero distinguishable on the merged timeline.
package trace

import "github.com/wafernet/fred/internal/sim"

// Arg is one key/value annotation on a trace event. Values may be
// string, float64, int, uint64 or bool; anything else is rendered with
// %v semantics by the Recorder.
type Arg struct {
	Key   string
	Value any
}

// String builds a string-valued Arg.
func String(key, value string) Arg { return Arg{Key: key, Value: value} }

// Float builds a float64-valued Arg.
func Float(key string, value float64) Arg { return Arg{Key: key, Value: value} }

// Int builds an int-valued Arg.
func Int(key string, value int) Arg { return Arg{Key: key, Value: value} }

// Tracer records simulation events. Implementations are not required
// to be safe for concurrent use: the discrete-event simulators are
// single-goroutine. A nil Tracer means tracing is disabled; all hook
// points nil-check before assembling events.
type Tracer interface {
	// Span records a completed duration [start, end] on the named
	// synchronous track.
	Span(track, name string, start, end sim.Time, args ...Arg)
	// AsyncSpan records a completed duration on the async track keyed
	// by (cat, id). Spans of the same (cat, id) may overlap in time.
	AsyncSpan(cat, name string, id uint64, start, end sim.Time, args ...Arg)
	// AsyncInstant records a point event within the (cat, id) async
	// track.
	AsyncInstant(cat, name string, id uint64, t sim.Time, args ...Arg)
	// Instant records a point event on the named synchronous track.
	Instant(track, name string, t sim.Time, args ...Arg)
	// Counter records a sample of the named series on a counter track.
	Counter(track, series string, t sim.Time, value float64)
}

// AttachSchedulerCounter adds a scheduler hook that samples the
// cumulative event count onto the given counter track (conventionally
// "scheduler" or "scheduler/<net>") every `every` fired events — a
// cheap load indicator for long runs. A nil tracer or zero interval
// adds nothing; hooks already on the scheduler keep firing either way.
func AttachSchedulerCounter(s *sim.Scheduler, tr Tracer, track string, every uint64) {
	if tr == nil || every == 0 {
		return
	}
	s.AddEventHook(func(now sim.Time, fired uint64) {
		if fired%every == 0 {
			tr.Counter(track, "events", now, float64(fired))
		}
	})
}
