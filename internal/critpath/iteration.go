package critpath

import (
	"sort"

	"github.com/wafernet/fred/internal/metrics"
)

// Segment is one interval of an iteration's critical path: a compute
// span, or a blocking wait whose duration the blame decomposes.
type Segment struct {
	// Kind is the interval kind ("compute", "wait", "op", "flow").
	Kind string `json:"kind"`
	// Label names the work ("fwd compute", "allreduce-ring", ...).
	Label string `json:"label"`
	// Class is the communication class of a wait ("MP", "DP", ...);
	// empty for compute.
	Class string  `json:"class,omitempty"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
	// Blame decomposes the non-compute part of the interval; a compute
	// segment carries zero blame.
	Blame Blame `json:"blame"`
	// BindLink names the binding (bottleneck) link of the interval's
	// critical flow, when one froze it.
	BindLink string `json:"bind_link,omitempty"`
}

// Duration returns the segment length.
func (s Segment) Duration() float64 { return s.End - s.Start }

// maxSegments bounds the per-iteration segment list kept in artifacts;
// the blame buckets always cover the full path regardless.
const maxSegments = 64

// Iteration is the analyzed critical path of one simulated iteration:
// an exact decomposition of iteration time into blame buckets
// (summing to Total within the 1e-9 standard) plus the dominant
// critical-path segments.
type Iteration struct {
	// Label identifies the cell ("GPT-3 MP(4)-DP(21)-PP(2) on Fred-D").
	Label string `json:"label,omitempty"`
	// Total is the iteration wall-clock time in seconds.
	Total float64 `json:"total_s"`

	// The five blame buckets. Compute + CommSerial + CommContention +
	// FaultRecovery + Idle == Total (exactly, up to the 1e-9·Total snap).
	Compute        float64 `json:"compute_s"`
	CommSerial     float64 `json:"comm_serialized_s"`
	CommContention float64 `json:"comm_contention_s"`
	FaultRecovery  float64 `json:"fault_recovery_s"`
	Idle           float64 `json:"idle_s"`

	// PathLen is the summed duration of the extracted critical-path
	// segments; ≤ Total (Idle is the gap).
	PathLen float64 `json:"path_len_s"`
	// LongestChain is the longest seq-chained path through the full
	// recorded DAG (≤ Total; a lower bound on the makespan).
	LongestChain float64 `json:"longest_chain_s,omitempty"`
	// MaxCausalDepth is the deepest event-causality chain the scheduler
	// observed (which event scheduled which, transitively).
	MaxCausalDepth uint64 `json:"max_causal_depth,omitempty"`
	// DagNodes/DagEdges size the recorded DAG.
	DagNodes int `json:"dag_nodes,omitempty"`
	DagEdges int `json:"dag_edges,omitempty"`

	// Segments are the critical path's dominant intervals, by
	// descending duration (capped at 64; Dropped counts the rest).
	Segments []Segment `json:"segments,omitempty"`
	// Dropped is the number of segments truncated from Segments.
	Dropped int `json:"dropped_segments,omitempty"`
}

// Attributed sums the non-idle buckets.
func (it Iteration) Attributed() float64 {
	return it.Compute + it.CommSerial + it.CommContention + it.FaultRecovery
}

// BuildIteration decomposes one iteration from its critical-path
// segments. Each segment contributes its blame to the comm buckets and
// its unblamed remainder (duration − blame, i.e. the whole duration of
// a compute span) to Compute; Idle is the residual Total − attributed,
// snapped to zero when floating-point cancellation leaves it a hair
// negative (the npuTime standard). Segments are sorted by descending
// duration and truncated to the artifact cap; the buckets always cover
// every segment.
func BuildIteration(label string, total float64, segs []Segment) Iteration {
	it := Iteration{Label: label, Total: total}
	for _, s := range segs {
		d := s.Duration()
		b := s.Blame
		it.PathLen += d
		it.CommSerial += b.Serial
		it.CommContention += b.Contention
		it.FaultRecovery += b.Fault
		if c := d - b.Total(); c > 0 {
			it.Compute += c
		}
	}
	it.Idle = total - it.Attributed()
	if it.Idle < 0 && it.Idle > -1e-9*total {
		it.Idle = 0
	}
	sorted := append([]Segment(nil), segs...)
	sort.SliceStable(sorted, func(i, j int) bool {
		di, dj := sorted[i].Duration(), sorted[j].Duration()
		if di != dj {
			return di > dj
		}
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].Label < sorted[j].Label
	})
	if len(sorted) > maxSegments {
		it.Dropped = len(sorted) - maxSegments
		sorted = sorted[:maxSegments]
	}
	it.Segments = sorted
	return it
}

// RecordMetrics emits the iteration's blame buckets as critpath/*
// series so fredreport can diff attributions across runs and fabrics.
// A nil registry is a no-op.
func (it *Iteration) RecordMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("critpath/iterations", "").Add(1)
	reg.Counter("critpath/compute_s", "s").Add(it.Compute)
	reg.Counter("critpath/comm_serialized_s", "s").SetBetter("lower").Add(it.CommSerial)
	reg.Counter("critpath/comm_contention_s", "s").SetBetter("lower").Add(it.CommContention)
	reg.Counter("critpath/fault_recovery_s", "s").SetBetter("lower").Add(it.FaultRecovery)
	reg.Counter("critpath/idle_s", "s").SetBetter("lower").Add(it.Idle)
	reg.Counter("critpath/path_len_s", "s").Add(it.PathLen)
}
