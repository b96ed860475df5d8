package training

import (
	"fmt"
	"strings"
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
