package metrics

import (
	"math"
	"testing"
)

func TestRegistryOrderAndLookup(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", "s")
	r.Gauge("a", "")
	r.Histogram("c", "", UtilBuckets())
	names := []string{}
	for _, s := range r.Series() {
		names = append(names, s.Name())
	}
	want := []string{"b", "a", "c"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("series order %v, want %v (registration order)", names, want)
		}
	}
	if r.Lookup("a").Kind() != KindGauge {
		t.Fatal("lookup returned wrong series")
	}
	if r.Lookup("missing") != nil {
		t.Fatal("lookup of unknown series not nil")
	}
	// Re-registration returns the same series.
	r.Counter("b", "s").Add(2)
	r.Counter("b", "s").Add(3)
	if got := r.Lookup("b").Value(); got != 5 {
		t.Fatalf("counter = %g, want 5", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x", "")
	for name, fn := range map[string]func(){
		"re-register": func() { r.Gauge("x", "") },
		"set-counter": func() { r.Lookup("x").Set(1) },
		"neg-add":     func() { r.Lookup("x").Add(-1) },
		"observe":     func() { r.Lookup("x").Observe(1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("util", "", UtilBuckets())
	// 60% of the time at util 0.5, 30% at 0.9, 10% at 0.05.
	h.Observe(0.5, 6)
	h.Observe(0.9, 3)
	h.Observe(0.05, 1)
	if got := h.Count(); got != 10 {
		t.Fatalf("count = %g, want 10", got)
	}
	wantMean := (0.5*6 + 0.9*3 + 0.05*1) / 10
	if got := h.Sum() / h.Count(); math.Abs(got-wantMean) > 1e-12 {
		t.Fatalf("mean = %g, want %g", got, wantMean)
	}
	if h.Min() != 0.05 || h.Max() != 0.9 {
		t.Fatalf("min/max = %g/%g, want 0.05/0.9", h.Min(), h.Max())
	}
	// p50 falls in the bucket holding 0.5; the estimator returns its
	// upper bound, which must bracket the true value within one log
	// step (10^(1/9) ≈ 1.29×).
	p50 := h.Quantile(0.5)
	if p50 < 0.5 || p50 > 0.5*math.Pow(10, 1.0/9)+1e-12 {
		t.Fatalf("p50 = %g, want within one bucket above 0.5", p50)
	}
	// p95 falls in the 0.9 bucket; clamped to the observed max.
	p95 := h.Quantile(0.95)
	if p95 < 0.9-1e-12 || p95 > 0.9+1e-12 {
		t.Fatalf("p95 = %g, want clamped to max 0.9", p95)
	}
	if got := h.Quantile(1.0); got != 0.9 {
		t.Fatalf("p100 = %g, want max", got)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 10})
	if h.Quantile(0.5) != 0 || h.Sum() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(0.5, 0) // zero weight ignored
	if h.Count() != 0 {
		t.Fatal("zero-weight observation counted")
	}
	h.Observe(100, 1) // overflow bucket
	if got := h.weights[2]; got != 1 {
		t.Fatalf("overflow weight = %g, want 1", got)
	}
	if got := h.Quantile(0.99); got != 100 {
		t.Fatalf("overflow quantile = %g, want observed max 100", got)
	}
}

func TestLogBuckets(t *testing.T) {
	b := LogBuckets(1e-3, 1, 9)
	if b[0] != 1e-3 {
		t.Fatalf("first bound = %g, want 1e-3", b[0])
	}
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("bounds not ascending at %d: %g <= %g", i, b[i], b[i-1])
		}
	}
	if last := b[len(b)-1]; last < 1 {
		t.Fatalf("last bound %g < hi", last)
	}
	// Canonical sets are shared instances, so same-name histograms
	// merge across registries.
	if &UtilBuckets()[0] != &UtilBuckets()[0] {
		t.Fatal("UtilBuckets not a shared instance")
	}
}

func TestMerge(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	a.Counter("c", "s").Add(1)
	a.Gauge("g", "").Set(7)
	a.Histogram("h", "", UtilBuckets()).Observe(0.5, 2)

	b.Counter("c", "s").Add(2)
	b.Gauge("g2", "").Set(3)
	b.Histogram("h", "", UtilBuckets()).Observe(0.9, 1)
	b.Counter("extra", "").SetBetter("lower").Add(4)

	a.Merge(b)
	if got := a.Lookup("c").Value(); got != 3 {
		t.Fatalf("merged counter = %g, want 3", got)
	}
	if got := a.Lookup("g").Value(); got != 7 {
		t.Fatalf("gauge overwritten by unset merge: %g", got)
	}
	if got := a.Lookup("g2").Value(); got != 3 {
		t.Fatalf("new gauge = %g, want 3", got)
	}
	h := a.Lookup("h")
	if h.Count() != 3 || h.Max() != 0.9 || h.Min() != 0.5 {
		t.Fatalf("merged histogram count/min/max = %g/%g/%g", h.Count(), h.Min(), h.Max())
	}
	if got := a.Lookup("extra"); got == nil || got.Better() != "lower" {
		t.Fatal("merge lost new series or its metadata")
	}
	// New series appended after existing ones, in the other
	// registry's order.
	last := a.Series()[len(a.Series())-1]
	if last.Name() != "extra" {
		t.Fatalf("merge order: last series %q, want extra", last.Name())
	}
}

func TestSetBetterValidates(t *testing.T) {
	r := NewRegistry()
	s := r.Counter("x", "")
	s.SetBetter("lower").SetBetter("higher").SetBetter("")
	defer func() {
		if recover() == nil {
			t.Fatal("invalid direction accepted")
		}
	}()
	s.SetBetter("sideways")
}
