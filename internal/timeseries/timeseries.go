// Package timeseries is the simulated-time plane of the flight
// recorder: fixed-interval samplers driven by the sim scheduler clock
// that turn a simulation's internal load signals — event-heap depth,
// active flows, rate-engine fill work, delivered bytes, link
// utilization, cumulative critical-path blame — into ring-bounded
// (time, value) series, exported as a versioned fred-timeseries/v1
// artifact (see artifact.go).
//
// Determinism is the same constraint the metrics subsystem bends to:
//
//   - Sampling is driven purely by the simulated clock. The recorder
//     hangs off the scheduler's event hook (sim.AddEventHook) and
//     never schedules events of its own, so attaching it cannot
//     perturb event sequence numbers, tie-breaks, or any simulated
//     result — recorded runs and unrecorded runs simulate
//     identically.
//   - Samples land on fixed interval boundaries t = k·dt. When the
//     ring reaches capacity, every other sample is dropped and the
//     interval doubles (deterministic decimation), so a series covers
//     any horizon — microseconds or minutes — in a bounded number of
//     points, and the retained points are a pure function of the
//     simulated event times.
//   - Probes are registered in a deterministic order and evaluated in
//     registration order at each boundary; export iterates ordered
//     slices, never maps. The experiment session exports per-cell
//     recorders in cell order, so the merged artifact is
//     byte-identical at every worker-pool size.
//
// The package depends only on sim (and metrics, for the shared run
// manifest); the network probes (netobs) and the experiment session
// depend on it, the same layering as trace.Tracer and
// critpath.Recorder.
package timeseries

import (
	"fmt"

	"github.com/wafernet/fred/internal/sim"
)

// DefaultInterval is the initial sampling interval in simulated
// seconds. It is deliberately finer than any study's horizon;
// decimation coarsens it geometrically as the run outgrows the ring.
const DefaultInterval = 1e-6

// DefaultCapacity is the per-series sample capacity. When a recorder
// reaches it, every other sample is dropped and the interval doubles.
const DefaultCapacity = 512

// Probe is one sampled quantity: a name, a unit label and a function
// returning the current value. Probe functions must be pure reads of
// simulator state — they run inside the scheduler's event hook and
// must not mutate anything.
type Probe struct {
	Name string
	Unit string
	Fn   func() float64
}

// Config sizes a Recorder.
type Config struct {
	// Interval is the initial sampling interval in simulated seconds
	// (DefaultInterval when zero).
	Interval float64
	// Capacity is the per-series ring capacity (DefaultCapacity when
	// zero). Must be at least 2 so decimation can make progress.
	Capacity int
}

// Recorder samples a set of probes at fixed simulated-time intervals
// into parallel series sharing one time base. It is single-goroutine,
// like the simulators that feed it: one recorder belongs to one
// scheduler.
type Recorder struct {
	label    string
	interval float64
	capacity int

	probes []Probe
	times  []float64   // shared sample timestamps, one per retained sample
	vals   [][]float64 // per-probe values, indexed [probe][sample]

	next        float64 // next un-recorded interval boundary
	decimations int
	finished    bool
}

// NewRecorder returns an empty recorder with the given shape.
func NewRecorder(cfg Config) *Recorder {
	if cfg.Interval == 0 {
		cfg.Interval = DefaultInterval
	}
	if cfg.Capacity == 0 {
		cfg.Capacity = DefaultCapacity
	}
	if cfg.Interval <= 0 || cfg.Capacity < 2 {
		panic(fmt.Sprintf("timeseries: invalid config interval=%g capacity=%d",
			cfg.Interval, cfg.Capacity))
	}
	return &Recorder{interval: cfg.Interval, capacity: cfg.Capacity}
}

// SetLabel names the simulation this recorder watches (conventionally
// the system under test); the label becomes the artifact cell label.
func (r *Recorder) SetLabel(label string) { r.label = label }

// Label returns the cell label.
func (r *Recorder) Label() string { return r.label }

// Interval returns the current (possibly decimated) sampling interval.
func (r *Recorder) Interval() float64 { return r.interval }

// Probe registers a sampled quantity. All probes must be registered
// before the first sample lands; registering later panics, because the
// new series would miss the shared time base's earlier points.
func (r *Recorder) Probe(name, unit string, fn func() float64) {
	if fn == nil {
		panic("timeseries: nil probe for " + name)
	}
	if len(r.times) > 0 {
		panic("timeseries: probe " + name + " registered after sampling began")
	}
	r.probes = append(r.probes, Probe{Name: name, Unit: unit, Fn: fn})
	r.vals = append(r.vals, nil)
}

// AttachScheduler registers the scheduler-load probes (event-heap
// depth and cumulative fired count) and chains the recorder's sampler
// onto the scheduler's event hook. Call it once, before the run.
func (r *Recorder) AttachScheduler(s *sim.Scheduler) {
	r.Probe("sched/pending", "", func() float64 { return float64(s.Pending()) })
	r.Probe("sched/fired", "", func() float64 { return float64(s.Fired()) })
	s.AddEventHook(func(now sim.Time, fired uint64) { r.Tick(now) })
}

// Tick records every interval boundary at or before now that has not
// been recorded yet. The recorded value is the probe state as of the
// call — in a discrete-event simulation state is piecewise-constant
// between events, so sampling at the first event at-or-after each
// boundary observes exactly the state that held across it (modulo the
// triggering event itself, a one-event skew the doc comments own up
// to). Boundaries are multiples of the current interval, so the
// retained sample times are reproducible run to run.
func (r *Recorder) Tick(now float64) {
	if r.finished || now < r.next {
		return
	}
	// One probe evaluation covers every boundary crossed by this event:
	// nothing changes between boundaries without an event in between.
	r.sampleUpTo(now, r.eval())
}

// Finish records the final boundary state at the end of the run (the
// last interval boundary at or before end, plus a closing sample at
// end itself when it is off-boundary) and freezes the recorder.
// Idempotent.
func (r *Recorder) Finish(end float64) {
	if r.finished {
		return
	}
	cur := r.eval()
	r.sampleUpTo(end, cur)
	if n := len(r.times); n == 0 || r.times[n-1] < end {
		r.append(end, cur)
	}
	r.finished = true
}

// eval samples every probe in registration order.
func (r *Recorder) eval() []float64 {
	cur := make([]float64, len(r.probes))
	for i, p := range r.probes {
		cur[i] = p.Fn()
	}
	return cur
}

// sampleUpTo records cur at every pending interval boundary ≤ limit,
// decimating whenever the ring fills: every other retained sample is
// dropped and the interval doubles, so capacity bounds memory while
// the series keeps covering the whole horizon. Decimation re-aligns
// the next boundary onto the coarser grid, so a long event gap settles
// into O(capacity · log(gap/interval)) work, not one sample per fine
// boundary.
func (r *Recorder) sampleUpTo(limit float64, cur []float64) {
	for limit >= r.next {
		if len(r.times) >= r.capacity {
			r.decimate()
			continue // r.next moved onto the coarser grid; re-test
		}
		r.append(r.next, cur)
		r.next += r.interval
	}
}

// append adds one sample column at time t.
func (r *Recorder) append(t float64, cur []float64) {
	r.times = append(r.times, t)
	for i := range r.vals {
		r.vals[i] = append(r.vals[i], cur[i])
	}
}

// decimate halves the retained samples (keeping even indices, i.e.
// multiples of the doubled interval) and doubles the interval.
func (r *Recorder) decimate() {
	keep := 0
	for i := 0; i < len(r.times); i += 2 {
		r.times[keep] = r.times[i]
		for p := range r.vals {
			r.vals[p][keep] = r.vals[p][i]
		}
		keep++
	}
	r.times = r.times[:keep]
	for p := range r.vals {
		r.vals[p] = r.vals[p][:keep]
	}
	r.interval *= 2
	r.decimations++
	// Re-align the next boundary to the coarser grid.
	if n := len(r.times); n > 0 {
		r.next = r.times[n-1] + r.interval
	}
}

// Len returns the number of retained samples.
func (r *Recorder) Len() int { return len(r.times) }

// Decimations returns how many times the ring halved.
func (r *Recorder) Decimations() int { return r.decimations }
