package training

import (
	"fmt"
	"strings"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netobs"
	"github.com/wafernet/fred/internal/trace"
)

// OpStats aggregates the communication operations of one class over a
// simulated iteration.
type OpStats struct {
	// Ops is the number of collective operations submitted.
	Ops int
	// Bytes is the total traffic injected into the fabric (sum of
	// per-transfer bytes — endpoint algorithms inject ~2(N−1)/N per
	// payload byte, in-network execution ~1×..2×).
	Bytes float64
	// BusyTime is the summed wall time of the operations (operations
	// of one class may run concurrently, so this can exceed the
	// iteration time).
	BusyTime float64
}

// CommStats is the per-class communication profile of an iteration.
type CommStats map[Class]OpStats

// String renders the stats in class order.
func (cs CommStats) String() string {
	var b strings.Builder
	for c := Class(0); c < numClasses; c++ {
		st, ok := cs[c]
		if !ok || st.Ops == 0 {
			continue
		}
		fmt.Fprintf(&b, "%s: %d ops, %.4g GB injected, %.4gs busy\n",
			c, st.Ops, st.Bytes/1e9, st.BusyTime)
	}
	return b.String()
}

// statsArbiter decorates an arbiter, recording per-class operation
// counts, injected bytes and durations. When the network has a tracer
// (netobs.AttachTracer) it also emits one async span per collective
// operation on the "comm" category — submission to completion on the
// simulated clock, tagged with the communication class (the strategy
// dimension), the overall 3D strategy and the injected bytes — the
// per-op timeline behind the paper's Figure 2/10 breakdowns.
type statsArbiter struct {
	inner arbiter
	e     *engine
	stats CommStats
	tr    trace.Tracer
	opSeq uint64
}

func newStatsArbiter(inner arbiter, e *engine) *statsArbiter {
	return &statsArbiter{inner: inner, e: e, stats: make(CommStats), tr: netobs.Tracer(e.net)}
}

func (a *statsArbiter) submit(class Class, s collective.Schedule, done func(*collective.Op)) {
	t0 := a.e.sched.Now()
	bytes := s.TotalBytes()
	a.opSeq++
	id := a.opSeq
	a.inner.submit(class, s, func(op *collective.Op) {
		st := a.stats[class]
		st.Ops++
		st.Bytes += bytes
		st.BusyTime += a.e.sched.Now() - t0
		a.stats[class] = st
		if a.tr != nil {
			a.tr.AsyncSpan("comm", class.String()+" "+s.Name, id, t0, a.e.sched.Now(),
				trace.String("class", class.String()),
				trace.String("strategy", a.e.cfg.Strategy.String()),
				trace.Float("bytes", bytes))
		}
		done(op)
	})
}
