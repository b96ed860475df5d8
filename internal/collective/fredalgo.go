package collective

import (
	"fmt"
	"sort"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/topology"
)

// groupByL1 splits a group of NPUs by leaf switch, preserving order
// within each leaf, and returns the involved leaf indices in order.
func groupByL1(f *topology.FredFabric, group []int) (map[int][]int, []int) {
	byL1 := make(map[int][]int)
	var l1s []int
	for _, npu := range group {
		l1 := f.L1Of(npu)
		if _, ok := byL1[l1]; !ok {
			l1s = append(l1s, l1)
		}
		byL1[l1] = append(byL1[l1], npu)
	}
	sort.Ints(l1s)
	return byL1, l1s
}

// appendLeaves appends the distinct leaf switches of a group to dst in
// ascending order — groupByL1's leaf list without the per-leaf member
// map, for the callers that need only the leaf set. Callers pass a
// stack buffer, so the common small groups allocate nothing.
func appendLeaves(dst []int, f *topology.FredFabric, group []int) []int {
	base := len(dst)
	for _, npu := range group {
		l1 := f.L1Of(npu)
		i := len(dst)
		for i > base && dst[i-1] > l1 {
			i--
		}
		if i > base && dst[i-1] == l1 {
			continue
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = l1
	}
	return dst
}

// FredEndpointAllReduce compiles the hierarchical 2D ring algorithm
// used by Fred-A and Fred-C (Section 7.2, after BlueConnect): a
// reduce-scatter ring among the NPUs under each leaf switch, an
// all-reduce ring across leaves (one concurrent ring per local
// position), then an all-gather ring under each leaf. This keeps
// L1↔L2 traffic at 1/k of a flat ring when each leaf hosts k members.
// Groups that do not split evenly across leaves fall back to a flat
// bidirectional ring (the generality cost of endpoint hierarchy).
func FredEndpointAllReduce(f *topology.FredFabric, group []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-endpoint-allreduce(%d)", len(group))}
	n := len(group)
	if n <= 1 || bytes <= 0 {
		return s
	}
	byL1, l1s := groupByL1(f, group)
	if len(l1s) == 1 {
		// Entire group under one leaf: a flat ring through the switch
		// runs at full NPU port bandwidth.
		return RingAllReduce(f, byL1[l1s[0]], bytes, true)
	}
	k := len(byL1[l1s[0]])
	uniform := true
	for _, members := range byL1 {
		if len(members) != k {
			uniform = false
			break
		}
	}
	if !uniform || k == 0 {
		return RingAllReduce(f, group, bytes, true)
	}
	if k == 1 {
		// One member per leaf: a single cross-leaf ring.
		return RingAllReduce(f, flatten(byL1, l1s), bytes, true)
	}
	// The three stages are chunked and pipelined (BlueConnect): in
	// steady state the intra-leaf reduce-scatter of chunk c+1, the
	// cross-leaf all-reduce of chunk c, and the intra-leaf all-gather
	// of chunk c−1 stream concurrently, so the schedule is one phase
	// holding every stage's edge transfers.
	var parts []Schedule
	// Stage 1: intra-leaf reduce-scatter (bytes → shard of bytes/k).
	for _, l1 := range l1s {
		parts = append(parts, RingReduceScatter(f, byL1[l1], bytes, true))
	}
	// Stage 2: cross-leaf all-reduce of each shard: k concurrent rings.
	for j := 0; j < k; j++ {
		ring := make([]int, 0, len(l1s))
		for _, l1 := range l1s {
			ring = append(ring, byL1[l1][j])
		}
		parts = append(parts, RingAllReduce(f, ring, bytes/float64(k), true))
	}
	// Stage 3: intra-leaf all-gather of the shards.
	for _, l1 := range l1s {
		parts = append(parts, RingAllGather(f, byL1[l1], bytes, true))
	}
	s.Phases = appendConcurrent(s.Phases, parts)
	return s
}

func flatten(byL1 map[int][]int, l1s []int) []int {
	var out []int
	for _, l1 := range l1s {
		out = append(out, byL1[l1]...)
	}
	return out
}

// appendConcurrent zips several schedules phase-by-phase: phase i of
// every schedule runs concurrently (they involve disjoint NPUs).
func appendConcurrent(phases []Phase, parts []Schedule) []Phase {
	maxLen := 0
	for _, p := range parts {
		if len(p.Phases) > maxLen {
			maxLen = len(p.Phases)
		}
	}
	for i := 0; i < maxLen; i++ {
		var ph Phase
		for _, p := range parts {
			if i < len(p.Phases) {
				ph = append(ph, p.Phases[i]...)
			}
		}
		phases = append(phases, ph)
	}
	return phases
}

// inNetworkDepth returns the pipelined tree's cut-through latency: 2
// hops for a leaf-local group, 4 through the root.
func inNetworkDepth(f *topology.FredFabric, group []int) float64 {
	var buf [16]int
	if len(appendLeaves(buf[:0], f, group)) <= 1 {
		return 2 * f.Config().LinkLatency
	}
	return 4 * f.Config().LinkLatency
}

// inNetworkTreeLinks returns the links of the reduction/broadcast tree
// connecting a group through its leaf switches (and the root switch if
// more than one leaf is involved): per-NPU up and down links plus the
// L1↔L2 links of every involved leaf.
func inNetworkTreeLinks(f *topology.FredFabric, group []int) []netsim.LinkID {
	var buf [16]int
	l1s := appendLeaves(buf[:0], f, group)
	links := make([]netsim.LinkID, 0, 2*len(group)+2*len(l1s))
	for _, npu := range group {
		links = append(links, f.UpLink(npu), f.DownLink(npu))
	}
	if len(l1s) > 1 {
		for _, l1 := range l1s {
			links = append(links, f.L1UpLink(l1), f.L1DownLink(l1))
		}
	}
	return links
}

// FredInNetworkAllReduce compiles an in-switch all-reduce (Fred-B/D):
// every NPU streams its D bytes up once; leaf switches reduce their
// local contributions, the root switch completes the reduction, and
// the result is broadcast down — per-NPU traffic D instead of the
// endpoint 2(N−1)/N·D (Section 2.2). The whole collective is one
// pipelined tree transfer.
func FredInNetworkAllReduce(f *topology.FredFabric, group []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-innet-allreduce(%d)", len(group))}
	if len(group) <= 1 || bytes <= 0 {
		return s
	}
	s.Phases = []Phase{{Transfer{
		Links:           inNetworkTreeLinks(f, group),
		Bytes:           bytes,
		LatencyOverride: inNetworkDepth(f, group),
	}}}
	return s
}

// FredInNetworkReduce compiles an in-switch reduce: contributions
// climb and reduce toward the root NPU's leaf, then descend to root.
func FredInNetworkReduce(f *topology.FredFabric, group []int, root int, bytes float64) Schedule {
	s := Schedule{Name: "fred-innet-reduce"}
	if bytes <= 0 {
		return s
	}
	rootL1 := f.L1Of(root)
	var links []netsim.LinkID
	for _, npu := range group {
		if npu != root {
			links = append(links, f.UpLink(npu))
		}
	}
	var buf [16]int
	l1s := appendLeaves(buf[:0], f, group)
	for _, l1 := range l1s {
		if l1 != rootL1 {
			links = append(links, f.L1UpLink(l1))
		}
	}
	needCross := false
	for _, l1 := range l1s {
		if l1 != rootL1 {
			needCross = true
		}
	}
	if needCross {
		links = append(links, f.L1DownLink(rootL1))
	}
	links = append(links, f.DownLink(root))
	if len(links) == 0 {
		return s
	}
	s.Phases = []Phase{{Transfer{Links: links, Bytes: bytes, LatencyOverride: inNetworkDepth(f, group)}}}
	return s
}

// FredInNetworkMulticast compiles an in-switch multicast: the source
// streams up once and the switches replicate downward.
func FredInNetworkMulticast(f *topology.FredFabric, src int, dsts []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-innet-multicast(%d)", len(dsts))}
	if bytes <= 0 {
		return s
	}
	srcL1 := f.L1Of(src)
	var links []netsim.LinkID
	seenL1 := make(map[int]bool)
	needUp := false
	for _, d := range dsts {
		if d == src {
			continue
		}
		needUp = true
		links = append(links, f.DownLink(d))
		l1 := f.L1Of(d)
		if l1 != srcL1 && !seenL1[l1] {
			seenL1[l1] = true
			links = append(links, f.L1DownLink(l1))
		}
	}
	if !needUp {
		return s
	}
	links = append(links, f.UpLink(src))
	if len(seenL1) > 0 {
		links = append(links, f.L1UpLink(srcL1))
	}
	depth := 2 * f.Config().LinkLatency
	if len(seenL1) > 0 {
		depth = 4 * f.Config().LinkLatency
	}
	s.Phases = []Phase{{Transfer{Links: links, Bytes: bytes, LatencyOverride: depth}}}
	return s
}

// FredInNetworkReduceScatter compiles a reduce-scatter as serial
// in-switch reduces, one per member (Table 2).
func FredInNetworkReduceScatter(f *topology.FredFabric, group []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-innet-reducescatter(%d)", len(group))}
	n := len(group)
	if n <= 1 || bytes <= 0 {
		return s
	}
	shard := bytes / float64(n)
	for _, root := range group {
		sub := FredInNetworkReduce(f, group, root, shard)
		s.Phases = append(s.Phases, sub.Phases...)
	}
	return s
}

// FredInNetworkAllGather compiles an all-gather as serial in-switch
// multicasts, one per member (Table 2).
func FredInNetworkAllGather(f *topology.FredFabric, group []int, bytes float64) Schedule {
	s := Schedule{Name: fmt.Sprintf("fred-innet-allgather(%d)", len(group))}
	n := len(group)
	if n <= 1 || bytes <= 0 {
		return s
	}
	shard := bytes / float64(n)
	for _, src := range group {
		sub := FredInNetworkMulticast(f, src, group, shard)
		s.Phases = append(s.Phases, sub.Phases...)
	}
	return s
}
