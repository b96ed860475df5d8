package collective

import "fmt"

// TreeAllReduce compiles the endpoint binomial-tree all-reduce of
// Section 2.2: ⌈log2 N⌉ reduce rounds toward the group's first member
// followed by the mirrored broadcast rounds. Each round is one phase,
// so the schedule pays one route latency per round — O(log N) latency
// terms against the ring's O(N), at the cost of moving the full
// payload every round (2·⌈log2 N⌉·D per-root traffic in the worst
// hop). Optimal for small messages; the ring wins at bandwidth-bound
// sizes (Thakur et al., cited in Section 2.2).
func TreeAllReduce(r router, group []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("tree-allreduce(%d)", len(group))}
	n := len(group)
	if n <= 1 || bytes <= 0 {
		return s
	}
	// Reduce rounds: in round k, member at offset i (i odd multiple of
	// 2^k ... i.e. i mod 2^(k+1) == 2^k) sends to i − 2^k.
	for k := 1; k < 2*n; k <<= 1 {
		var ph Phase
		for i := k; i < n; i += 2 * k {
			ph = append(ph, Transfer{Links: r.Route(group[i], group[i-k]), Bytes: bytes})
		}
		if len(ph) > 0 {
			s.Phases = append(s.Phases, ph)
		}
	}
	// Broadcast rounds: mirror image.
	top := 1
	for top < n {
		top <<= 1
	}
	for k := top / 2; k >= 1; k >>= 1 {
		var ph Phase
		for i := k; i < n; i += 2 * k {
			ph = append(ph, Transfer{Links: r.Route(group[i-k], group[i]), Bytes: bytes})
		}
		if len(ph) > 0 {
			s.Phases = append(s.Phases, ph)
		}
	}
	return s
}
