package timeseries

import (
	"bytes"
	"math"
	"testing"

	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/sim"
)

// TestTickSamplesBoundaries: samples land on interval multiples, one
// value per crossed boundary, holding the piecewise-constant state.
func TestTickSamplesBoundaries(t *testing.T) {
	r := NewRecorder(Config{Interval: 1, Capacity: 64})
	v := 10.0
	r.Probe("x", "", func() float64 { return v })

	r.Tick(0) // boundary 0
	v = 20
	r.Tick(2.5) // boundaries 1, 2 — both see the state at the tick
	v = 30
	r.Tick(2.7) // no new boundary
	r.Finish(4) // boundaries 3, 4 (4 is on-grid: no extra closing sample)

	wantT := []float64{0, 1, 2, 3, 4}
	wantV := []float64{10, 20, 20, 30, 30}
	if len(r.times) != len(wantT) {
		t.Fatalf("Len = %d, want %d (times %v)", len(r.times), len(wantT), r.times)
	}
	for i := range wantT {
		if r.times[i] != wantT[i] || r.vals[0][i] != wantV[i] {
			t.Errorf("sample %d = (%g, %g), want (%g, %g)",
				i, r.times[i], r.vals[0][i], wantT[i], wantV[i])
		}
	}
}

// TestFinishClosingSample: an off-boundary end time gets one closing
// sample at the end itself, and Finish is idempotent.
func TestFinishClosingSample(t *testing.T) {
	r := NewRecorder(Config{Interval: 1, Capacity: 64})
	r.Probe("x", "", func() float64 { return 1 })
	r.Tick(0)
	r.Finish(2.5)
	r.Finish(9) // frozen: must not extend
	want := []float64{0, 1, 2, 2.5}
	if got := r.times; len(got) != len(want) {
		t.Fatalf("times = %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("times = %v, want %v", got, want)
			}
		}
	}
	r.Tick(7) // also frozen
	if len(r.times) != 4 {
		t.Errorf("Tick after Finish extended the series to %d samples", len(r.times))
	}
}

// TestDecimation: filling past capacity halves the ring and doubles
// the interval; retained times stay on the coarser grid and the series
// still covers the whole horizon.
func TestDecimation(t *testing.T) {
	r := NewRecorder(Config{Interval: 1, Capacity: 8})
	n := 0.0
	r.Probe("n", "", func() float64 { n++; return n })
	for i := 0; i <= 100; i++ {
		r.Tick(float64(i))
	}
	if r.decimations == 0 {
		t.Fatal("no decimation after 101 boundaries into a capacity-8 ring")
	}
	if len(r.times) > 8 {
		t.Fatalf("Len = %d exceeds capacity 8", len(r.times))
	}
	iv := r.interval
	if want := math.Pow(2, float64(r.decimations)); iv != want {
		t.Errorf("interval = %g after %d decimations, want %g", iv, r.decimations, want)
	}
	times := r.times
	if times[0] != 0 {
		t.Errorf("first retained sample at %g, want 0", times[0])
	}
	for i, ts := range times {
		if math.Mod(ts, iv) != 0 {
			t.Errorf("sample %d at %g is off the %g grid", i, ts, iv)
		}
		if i > 0 && ts <= times[i-1] {
			t.Errorf("times not strictly increasing at %d: %v", i, times)
		}
	}
	if last := times[len(times)-1]; last < 100-2*iv {
		t.Errorf("last retained sample %g does not reach the horizon 100 (interval %g)", last, iv)
	}
}

// TestLongGapCost: a single huge time jump must not do per-fine-boundary
// work — the probe is evaluated once per Tick, and decimation coarsens
// the grid geometrically.
func TestLongGapCost(t *testing.T) {
	r := NewRecorder(Config{Interval: 1e-6, Capacity: 16})
	evals := 0
	r.Probe("x", "", func() float64 { evals++; return 0 })
	r.Tick(0)
	r.Tick(1e6) // 10^12 fine boundaries
	if evals != 2 {
		t.Errorf("probe evaluated %d times for 2 ticks, want 2", evals)
	}
	if len(r.times) > 16 {
		t.Errorf("Len = %d exceeds capacity", len(r.times))
	}
}

// TestProbeAfterSamplingPanics: the shared time base cannot absorb a
// late probe.
func TestProbeAfterSamplingPanics(t *testing.T) {
	r := NewRecorder(Config{Interval: 1, Capacity: 8})
	r.Probe("a", "", func() float64 { return 0 })
	r.Tick(0)
	defer func() {
		if recover() == nil {
			t.Error("late Probe did not panic")
		}
	}()
	r.Probe("b", "", func() float64 { return 0 })
}

// TestAttachScheduler: the recorder samples off the scheduler hook
// without perturbing the event sequence, and chains with a prior hook.
func TestAttachScheduler(t *testing.T) {
	s := sim.NewScheduler()
	prior := 0
	s.AddEventHook(func(now sim.Time, fired uint64) { prior++ })
	r := NewRecorder(Config{Interval: 1, Capacity: 64})
	r.AttachScheduler(s)

	var order []int
	for i := 0; i < 5; i++ {
		i := i
		s.At(float64(i), func() { order = append(order, i) })
	}
	end := s.Run()
	r.Finish(end)

	for i, got := range order {
		if got != i {
			t.Fatalf("event order perturbed: %v", order)
		}
	}
	if prior != 5 {
		t.Errorf("prior hook ran %d times, want 5 (hooks must not displace each other)", prior)
	}
	if len(r.times) == 0 {
		t.Fatal("no samples recorded off the scheduler hook")
	}
	// Probe 0 is sched/pending, probe 1 is sched/fired.
	if got := r.probes[1].Name; got != "sched/fired" {
		t.Fatalf("probe 1 = %q, want sched/fired", got)
	}
	fired := r.vals[1]
	if last := fired[len(fired)-1]; last != 5 {
		t.Errorf("final sched/fired sample = %g, want 5", last)
	}
}

// TestArtifactRoundTrip: Encode/Decode preserve the cells, and the
// schema gate rejects foreign artifacts.
func TestArtifactRoundTrip(t *testing.T) {
	r := NewRecorder(Config{Interval: 1, Capacity: 8})
	r.SetLabel("Fred-D")
	r.Probe("x", "B", func() float64 { return 42 })
	r.Tick(0)
	r.Finish(2)

	art := Export(metrics.Manifest{Tool: "test"}, []Cell{r.Snapshot()})
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema {
		t.Errorf("schema = %q, want %q", back.Schema, Schema)
	}
	if len(back.Cells) != 1 || back.Cells[0].Label != "Fred-D" {
		t.Fatalf("cells = %+v", back.Cells)
	}
	s := back.Cells[0].Series[0]
	if s.Name != "x" || s.Unit != "B" || len(s.Samples) != 3 || s.Samples[0][1] != 42 {
		t.Errorf("series = %+v", s)
	}
	if _, err := Decode([]byte(`{"schema":"fred-metrics/v1"}`)); err == nil {
		t.Error("foreign schema accepted")
	}
	// Re-encoding is byte-stable.
	data2, err := back.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Error("re-encoded artifact differs")
	}
}
