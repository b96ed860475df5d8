package collective

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

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

// appendSwitches appends to dst one member of the group per distinct
// level-k switch above it (k = 1: its L1), in switch order — groupByL1's
// leaf list at k = 1, without the per-leaf member map. The NPUs under
// a switch are contiguous in index order, so members sort as their
// switches do, and a switch already present holds a neighbour of a new
// member's insertion point. Callers pass a stack buffer, so the common
// small groups allocate nothing.
func appendSwitches(dst []int, f *topology.FredFabric, group []int, k int) []int {
	base := len(dst)
	for _, npu := range group {
		i := len(dst)
		for i > base && dst[i-1] > npu {
			i--
		}
		id := f.UpLink(npu, k)
		if i > base && f.UpLink(dst[i-1], k) == id || i < len(dst) && f.UpLink(dst[i], k) == id {
			continue
		}
		dst = append(dst, 0)
		copy(dst[i+1:], dst[i:])
		dst[i] = npu
	}
	return dst
}

// spanLevel returns the level of the lowest switch above every member
// of the group: 1 when they share an L1, Levels() when only the root
// joins them.
func spanLevel(f *topology.FredFabric, group []int) int {
	k := 1
	for ; k < f.Levels(); k++ {
		i := 1
		for i < len(group) && f.UpLink(group[i], k) == f.UpLink(group[0], k) {
			i++
		}
		if i >= len(group) {
			break
		}
	}
	return k
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

// inNetworkDepth returns the pipelined tree's cut-through latency:
// up to the group's lowest common switch and back down, 2 hops for a
// leaf-local group and 4 through a 2-level root.
func inNetworkDepth(f *topology.FredFabric, group []int) float64 {
	return float64(2*spanLevel(f, group)) * f.Config().LinkLatency
}

// inNetworkTreeLinks returns the links of the reduction/broadcast tree
// connecting a group through its switches: per-NPU up and down links,
// then, at each level below the group's lowest common switch, the up
// and down links of every involved switch.
func inNetworkTreeLinks(f *topology.FredFabric, group []int) []netsim.LinkID {
	var buf [16]int
	switches := appendSwitches(buf[:0], f, group, 1)
	links := make([]netsim.LinkID, 0, 2*len(group)+2*(f.Levels()-1)*len(switches))
	for _, npu := range group {
		links = append(links, f.UpLink(npu, 0), f.DownLink(npu, 0))
	}
	for k := 1; k < f.Levels(); k++ {
		if k > 1 {
			switches = appendSwitches(buf[:0], f, group, k)
		}
		if len(switches) <= 1 {
			break
		}
		for _, npu := range switches {
			links = append(links, f.UpLink(npu, k), f.DownLink(npu, k))
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
// climb and reduce toward the root NPU's switches, then descend to
// root.
func FredInNetworkReduce(f *topology.FredFabric, group []int, root int, bytes float64) Schedule {
	s := Schedule{Name: "fred-innet-reduce"}
	if bytes <= 0 {
		return s
	}
	var buf [16]int
	switches := appendSwitches(buf[:0], f, group, 1)
	links := make([]netsim.LinkID, 0, len(group)+(f.Levels()-1)*len(switches)+f.Levels())
	for _, npu := range group {
		if npu != root {
			links = append(links, f.UpLink(npu, 0))
		}
	}
	// Every switch off the root's path forwards its partial sum up, as
	// far as the level that joins the group with the root.
	top := 1
	for k := 1; k < f.Levels(); k++ {
		if k > 1 {
			switches = appendSwitches(buf[:0], f, group, k)
		}
		rootUp := f.UpLink(root, k)
		for _, npu := range switches {
			if up := f.UpLink(npu, k); up != rootUp {
				links = append(links, up)
				top = k + 1
			}
		}
	}
	for k := top - 1; k >= 0; k-- {
		links = append(links, f.DownLink(root, k))
	}
	s.Phases = []Phase{{Transfer{Links: links, Bytes: bytes, LatencyOverride: inNetworkDepth(f, group)}}}
	return s
}

// FredInNetworkMulticast compiles an in-switch multicast: the source
// streams up once and the switches replicate downward.
func FredInNetworkMulticast(f *topology.FredFabric, src int, dsts []int, bytes float64) Schedule {
	s := Schedule{Name: "fred-innet-multicast(" + strconv.Itoa(len(dsts)) + ")"}
	if bytes <= 0 {
		return s
	}
	// The L1s already reached, in a stack array of 16 flags (a heap
	// slice only on fabrics with more L1s), and the down links already
	// taken from the switches above them.
	var seenBuf [16]bool
	seenL1 := seenBuf[:]
	if n := f.L1Count(); n > len(seenBuf) {
		seenL1 = make([]bool, n)
	}
	var aboveBuf [16]netsim.LinkID
	seenAbove := aboveBuf[:0]
	links := make([]netsim.LinkID, 0, len(dsts)+f.L1Count()+f.Levels())
	top, srcL1 := 0, f.L1Of(src)
	for _, d := range dsts {
		if d == src {
			continue
		}
		top = max(top, 1)
		links = append(links, f.DownLink(d, 0))
		l1 := f.L1Of(d)
		if l1 == srcL1 || seenL1[l1] {
			continue
		}
		seenL1[l1] = true
		top = max(top, 2)
		links = append(links, f.DownLink(d, 1))
		for k := 2; k < f.Levels() && f.UpLink(d, k) != f.UpLink(src, k); k++ {
			top = max(top, k+1)
			if down := f.DownLink(d, k); !slices.Contains(seenAbove, down) {
				seenAbove = append(seenAbove, down)
				links = append(links, down)
			}
		}
	}
	if top == 0 {
		return s
	}
	for k := 0; k < top; k++ {
		links = append(links, f.UpLink(src, k))
	}
	s.Phases = []Phase{{Transfer{Links: links, Bytes: bytes, LatencyOverride: float64(2*top) * f.Config().LinkLatency}}}
	return s
}

// FredInNetworkReduceScatter compiles a reduce-scatter as serial
// in-switch reduces, one per member (Table 2).
func FredInNetworkReduceScatter(f *topology.FredFabric, group []int, bytes float64) Schedule {
	return serialRounds("fred-innet-reducescatter", group, bytes, func(root int, shard float64) Schedule {
		return FredInNetworkReduce(f, group, root, shard)
	})
}

// FredInNetworkAllGather compiles an all-gather as serial in-switch
// multicasts, one per member (Table 2).
func FredInNetworkAllGather(f *topology.FredFabric, group []int, bytes float64) Schedule {
	return serialRounds("fred-innet-allgather", group, bytes, func(src int, shard float64) Schedule {
		return FredInNetworkMulticast(f, src, group, shard)
	})
}

// serialRounds compiles a collective as one round per group member,
// each moving that member's shard of bytes.
func serialRounds(name string, group []int, bytes float64, round func(member int, shard float64) Schedule) Schedule {
	s := Schedule{Name: fmt.Sprintf("%s(%d)", name, len(group))}
	if len(group) <= 1 || bytes <= 0 {
		return s
	}
	shard := bytes / float64(len(group))
	for _, m := range group {
		s.Phases = append(s.Phases, round(m, shard).Phases...)
	}
	return s
}
