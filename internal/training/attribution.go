package training

import (
	"fmt"
	"sort"

	"github.com/wafernet/fred/internal/metrics"
)

// NPUTime attributes one placed NPU's share of the iteration wall
// clock: compute, exposed communication per class, and idle. Idle is
// the residual Total − (compute + exposed), so the components sum to
// the iteration time exactly — bubble time of non-critical pipeline
// stages and post-finish waits land here.
type NPUTime struct {
	NPU       int
	Compute   float64
	InputLoad float64
	MP        float64
	DP        float64
	PP        float64
	Stream    float64
	Idle      float64
	Total     float64
}

// Attributed sums the non-idle components.
func (t NPUTime) Attributed() float64 {
	return t.Compute + t.InputLoad + t.MP + t.DP + t.PP + t.Stream
}

// npuTime builds one attribution row from a timeline account: compute
// seconds and per-class blocked time.
func npuTime(npu int, total, compute float64, blocked [numClasses]float64) NPUTime {
	t := NPUTime{
		NPU:       npu,
		Compute:   compute,
		InputLoad: blocked[ClassLoad],
		MP:        blocked[ClassMP],
		DP:        blocked[ClassDP],
		PP:        blocked[ClassPP],
		Stream:    blocked[ClassStream],
		Total:     total,
	}
	t.Idle = total - t.Attributed()
	// Floating-point cancellation can leave the residual a hair below
	// zero on the critical path; snap it so Idle stays a valid counter.
	if t.Idle < 0 && t.Idle > -1e-9*total {
		t.Idle = 0
	}
	return t
}

// byClass returns the breakdown component of a class.
func (b Breakdown) byClass(c Class) float64 {
	switch c {
	case ClassMP:
		return b.MP
	case ClassPP:
		return b.PP
	case ClassDP:
		return b.DP
	case ClassLoad:
		return b.InputLoad
	case ClassStream:
		return b.Stream
	}
	return 0
}

// slug is the series-name form of a class.
func (c Class) slug() string {
	switch c {
	case ClassMP:
		return "mp"
	case ClassPP:
		return "pp"
	case ClassDP:
		return "dp"
	case ClassLoad:
		return "input_load"
	case ClassStream:
		return "stream"
	}
	return fmt.Sprintf("class%d", int(c))
}

// RecordMetrics emits the report into a metrics registry: iteration
// totals and the critical-path breakdown, the per-class communication
// profile, and the per-NPU attribution rows. Series are registered in
// a fixed order (classes by priority, NPUs ascending) so repeated runs
// export byte-identical artifacts. A nil registry is a no-op.
func (r *Report) RecordMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("train/iterations", "").Add(1)
	reg.Counter("train/total_s", "s").SetBetter("lower").Add(r.Total)
	reg.Counter("train/compute_s", "s").Add(r.Breakdown.Compute)
	for c := Class(0); c < numClasses; c++ {
		reg.Counter("train/exposed/"+c.slug()+"_s", "s").SetBetter("lower").
			Add(r.Breakdown.byClass(c))
	}
	for c := Class(0); c < numClasses; c++ {
		st, ok := r.Comm[c]
		if !ok {
			continue
		}
		prefix := "comm/" + c.slug() + "/"
		reg.Counter(prefix+"ops", "").Add(float64(st.Ops))
		reg.Counter(prefix+"bytes", "B").Add(st.Bytes)
		reg.Counter(prefix+"busy_s", "s").Add(st.BusyTime)
	}
	if r.CritPath != nil {
		r.CritPath.RecordMetrics(reg)
	}
	for _, t := range r.NPUs {
		prefix := fmt.Sprintf("npu/%03d/", t.NPU)
		reg.Counter(prefix+"compute_s", "s").Add(t.Compute)
		reg.Counter(prefix+"input_load_s", "s").Add(t.InputLoad)
		reg.Counter(prefix+"mp_s", "s").Add(t.MP)
		reg.Counter(prefix+"dp_s", "s").Add(t.DP)
		reg.Counter(prefix+"pp_s", "s").Add(t.PP)
		reg.Counter(prefix+"stream_s", "s").Add(t.Stream)
		reg.Counter(prefix+"idle_s", "s").Add(t.Idle)
	}
}

// sortNPUs orders attribution rows by NPU id.
func sortNPUs(rows []NPUTime) []NPUTime {
	sort.Slice(rows, func(i, j int) bool { return rows[i].NPU < rows[j].NPU })
	return rows
}
