// Package metrics is the simulators' deterministic, sim-clock metrics
// subsystem: a registry of named counters, gauges and fixed-bucket
// histograms that the network and training simulators populate at
// their existing observability hook points, exported as a versioned,
// machine-readable run artifact (see artifact.go) that cmd/fredreport
// can diff across runs.
//
// Determinism is the design constraint everything else bends to:
//
//   - Series are kept in registration order (an ordered slice plus a
//     name index), never in map-iteration order, so export order is
//     reproducible.
//   - Histograms use fixed, log-spaced bucket bounds chosen at
//     registration. Observations only ever add a weight to one bucket
//     and to scalar accumulators, so the stored state is independent
//     of how concurrent experiment cells are scheduled — each cell
//     owns a private Registry and the cells merge in cell order
//     (Registry.Merge), making the merged artifact byte-identical at
//     every `-parallel` pool size.
//   - Quantiles are derived from the bucket weights (upper-bound
//     estimator clamped to the observed extrema), not from raw sample
//     streams, so they are insensitive to sample arrival order.
//
// The package has no dependencies on the simulators; netobs and
// training depend on it, mirroring how trace.Tracer is consumed.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// EngineVersion identifies the simulator engine revision that produced
// an artifact. Bump it when a change intentionally alters simulated
// results, so fredreport can flag cross-version comparisons.
const EngineVersion = "fred-sim/4"

// Kind discriminates the series types.
type Kind int

// Series kinds.
const (
	// KindCounter is a monotonically accumulating value (Add).
	KindCounter Kind = iota
	// KindGauge is a last-write-wins point measurement (Set).
	KindGauge
	// KindHistogram is a weighted distribution over fixed buckets
	// (Observe).
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Series is one named metric. The zero value is not useful; obtain
// series from a Registry.
type Series struct {
	name   string
	kind   Kind
	unit   string
	better string // "", "lower" or "higher": regression direction

	// Counter / gauge state.
	value float64
	set   bool // a gauge was explicitly Set at least once

	// Histogram state: weights[i] accumulates observations with
	// value ≤ bounds[i] (and > bounds[i-1]); weights[len(bounds)] is
	// the overflow bucket. count/sum/min/max are weighted scalar
	// accumulators for exact mean and extrema.
	bounds   []float64
	weights  []float64
	count    float64
	sum      float64
	min, max float64
}

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Kind returns the series kind.
func (s *Series) Kind() Kind { return s.kind }

// Unit returns the unit label given at registration.
func (s *Series) Unit() string { return s.unit }

// Better returns the regression direction ("lower", "higher" or "").
func (s *Series) Better() string { return s.better }

// SetBetter marks which direction is an improvement, making the series
// eligible for fredreport's regression gating. It returns the series
// for chaining.
func (s *Series) SetBetter(dir string) *Series {
	if dir != "" && dir != "lower" && dir != "higher" {
		panic(fmt.Sprintf("metrics: better direction %q (want lower/higher/empty)", dir))
	}
	s.better = dir
	return s
}

// Add accumulates into a counter. Negative deltas panic: counters are
// monotone by contract.
func (s *Series) Add(v float64) {
	if s.kind != KindCounter {
		panic(fmt.Sprintf("metrics: Add on %v series %q", s.kind, s.name))
	}
	if v < 0 {
		panic(fmt.Sprintf("metrics: negative counter delta %g on %q", v, s.name))
	}
	s.value += v
}

// Set stores a gauge value.
func (s *Series) Set(v float64) {
	if s.kind != KindGauge {
		panic(fmt.Sprintf("metrics: Set on %v series %q", s.kind, s.name))
	}
	s.value = v
	s.set = true
}

// Value returns the current counter or gauge value.
func (s *Series) Value() float64 { return s.value }

// Observe adds a weighted observation to a histogram. The simulators
// use the sim-time duration a value held as its weight, yielding
// time-weighted distributions; weight 1 gives plain sample counting.
// Zero or negative weights are ignored.
func (s *Series) Observe(v, weight float64) {
	if s.kind != KindHistogram {
		panic(fmt.Sprintf("metrics: Observe on %v series %q", s.kind, s.name))
	}
	if weight <= 0 {
		return
	}
	i := sort.SearchFloat64s(s.bounds, v)
	s.weights[i] += weight
	if s.count == 0 || v < s.min {
		s.min = v
	}
	if s.count == 0 || v > s.max {
		s.max = v
	}
	s.count += weight
	s.sum += v * weight
}

// Count returns the histogram's total observation weight.
func (s *Series) Count() float64 { return s.count }

// Sum returns the histogram's weighted value sum.
func (s *Series) Sum() float64 { return s.sum }

// Min returns the smallest observed value (0 when empty).
func (s *Series) Min() float64 { return s.min }

// Max returns the largest observed value (0 when empty).
func (s *Series) Max() float64 { return s.max }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) from the bucket
// weights: the upper bound of the bucket where the cumulative weight
// crosses q×total, clamped to the observed [min, max]. The estimate is
// a function of the accumulated bucket state only, so it is as
// deterministic as the observations themselves.
func (s *Series) Quantile(q float64) float64 {
	if s.kind != KindHistogram {
		panic(fmt.Sprintf("metrics: Quantile on %v series %q", s.kind, s.name))
	}
	if s.count <= 0 {
		return 0
	}
	target := q * s.count
	cum := 0.0
	for i, w := range s.weights {
		cum += w
		if cum >= target {
			est := s.max
			if i < len(s.bounds) {
				est = s.bounds[i]
			}
			if est > s.max {
				est = s.max
			}
			if est < s.min {
				est = s.min
			}
			return est
		}
	}
	return s.max
}

// Registry is an ordered collection of series. It is not safe for
// concurrent use: each experiment cell owns a private registry (the
// simulators are single-goroutine) and concurrent cells merge with
// Merge, in cell order.
type Registry struct {
	byName map[string]*Series
	series []*Series
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*Series)}
}

// Len returns the number of registered series.
func (r *Registry) Len() int { return len(r.series) }

// Series returns the registered series in registration order (aliased,
// do not mutate).
func (r *Registry) Series() []*Series { return r.series }

// Lookup returns the named series, or nil.
func (r *Registry) Lookup(name string) *Series { return r.byName[name] }

func (r *Registry) register(name string, kind Kind, unit string) *Series {
	if s := r.byName[name]; s != nil {
		if s.kind != kind {
			panic(fmt.Sprintf("metrics: series %q re-registered as %v (was %v)", name, kind, s.kind))
		}
		return s
	}
	s := &Series{name: name, kind: kind, unit: unit}
	r.byName[name] = s
	r.series = append(r.series, s)
	return s
}

// Counter registers (or returns the existing) counter series.
func (r *Registry) Counter(name, unit string) *Series {
	return r.register(name, KindCounter, unit)
}

// Gauge registers (or returns the existing) gauge series.
func (r *Registry) Gauge(name, unit string) *Series {
	return r.register(name, KindGauge, unit)
}

// Histogram registers (or returns the existing) histogram series with
// the given bucket upper bounds, which must be sorted ascending. The
// bounds slice is retained; callers share canonical bound sets (e.g.
// UtilBuckets) so that histograms of the same name merge across
// registries.
func (r *Registry) Histogram(name, unit string, bounds []float64) *Series {
	if s := r.byName[name]; s != nil {
		if s.kind != KindHistogram {
			panic(fmt.Sprintf("metrics: series %q re-registered as histogram (was %v)", name, s.kind))
		}
		return s
	}
	if len(bounds) == 0 {
		panic(fmt.Sprintf("metrics: histogram %q with no buckets", name))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram %q bounds not ascending at %d", name, i))
		}
	}
	s := r.register(name, KindHistogram, unit)
	s.bounds = bounds
	s.weights = make([]float64, len(bounds)+1)
	return s
}

// Merge folds another registry into this one, series by series matched
// on name: counters sum, gauges take the other's value when it was
// set, histogram buckets and scalar accumulators add (bounds must be
// identical). Unknown series are registered in the other registry's
// order, so merging a deterministic sequence of registries yields a
// deterministic result.
func (r *Registry) Merge(o *Registry) {
	for _, os := range o.series {
		switch os.kind {
		case KindCounter:
			r.Counter(os.name, os.unit).copyMeta(os).value += os.value
		case KindGauge:
			s := r.Gauge(os.name, os.unit).copyMeta(os)
			if os.set {
				s.value = os.value
				s.set = true
			}
		case KindHistogram:
			s := r.Histogram(os.name, os.unit, os.bounds).copyMeta(os)
			if len(s.bounds) != len(os.bounds) {
				panic(fmt.Sprintf("metrics: merge of %q with mismatched buckets", os.name))
			}
			for i := range s.bounds {
				if s.bounds[i] != os.bounds[i] {
					panic(fmt.Sprintf("metrics: merge of %q with mismatched buckets", os.name))
				}
			}
			for i, w := range os.weights {
				s.weights[i] += w
			}
			if os.count > 0 {
				if s.count == 0 || os.min < s.min {
					s.min = os.min
				}
				if s.count == 0 || os.max > s.max {
					s.max = os.max
				}
				s.count += os.count
				s.sum += os.sum
			}
		}
	}
}

// copyMeta carries regression metadata across a merge (first writer
// wins; all producers set identical metadata in practice).
func (s *Series) copyMeta(o *Series) *Series {
	if s.better == "" {
		s.better = o.better
	}
	return s
}

// LogBuckets builds log-spaced bucket upper bounds from lo up to (at
// least) hi with perDecade buckets per factor of ten. Bounds are a
// pure function of the arguments, so every caller passing the same
// shape gets bit-identical buckets.
func LogBuckets(lo, hi float64, perDecade int) []float64 {
	if lo <= 0 || hi <= lo || perDecade <= 0 {
		panic(fmt.Sprintf("metrics: LogBuckets(%g, %g, %d) invalid", lo, hi, perDecade))
	}
	var out []float64
	for e := 0; ; e++ {
		v := lo * math.Pow(10, float64(e)/float64(perDecade))
		out = append(out, v)
		if v >= hi {
			return out
		}
	}
}

// utilBuckets is the canonical bound set for link-utilization
// histograms, shared so per-link series merge across experiment cells.
var utilBuckets = LogBuckets(1e-3, 1, 9)

// UtilBuckets returns the canonical log-spaced bounds for utilization
// histograms (1e-3 … 1.0, 9 buckets per decade; utilization below the
// first bound lands in its bucket, above 1.0 in the overflow bucket).
func UtilBuckets() []float64 { return utilBuckets }
