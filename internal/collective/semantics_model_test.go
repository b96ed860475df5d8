package collective

import (
	"fmt"
	"sort"
)

// This file is a chunk-level semantic model of the collective
// algorithms the schedules in this package time: it executes the data
// movement of ring and hierarchical all-reduces with explicit
// contribution sets and checks the postconditions (every member ends
// holding the reduction over every member's contribution, for each
// chunk). The flow-level schedules model steady-state bandwidth; this
// model proves the algorithms they represent are correct. Only tests
// run it, as the reference the schedules are checked against.

// contribution tracks, per chunk, which members' inputs have been
// folded in.
type contribution map[int]bool

func (c contribution) clone() contribution {
	out := make(contribution, len(c))
	for k := range c {
		out[k] = true
	}
	return out
}

func (c contribution) merge(other contribution) {
	for k := range other {
		c[k] = true
	}
}

func (c contribution) complete(members []int) bool {
	for _, m := range members {
		if !c[m] {
			return false
		}
	}
	return true
}

// chunkState is each member's view of each chunk.
type chunkState map[int][]contribution // member → per-chunk contributions

func newChunkState(members []int, chunks int) chunkState {
	st := make(chunkState, len(members))
	for _, m := range members {
		per := make([]contribution, chunks)
		for c := range per {
			per[c] = contribution{m: true}
		}
		st[m] = per
	}
	return st
}

// VerifyRingAllReduce executes the textbook ring all-reduce over the
// given member order at chunk granularity — N−1 reduce-scatter steps
// (each member forwards the chunk it just reduced) followed by N−1
// all-gather steps — and reports whether every member ends with the
// full reduction of every chunk.
func VerifyRingAllReduce(order []int) error {
	n := len(order)
	if n < 2 {
		return nil
	}
	st := newChunkState(order, n)
	// Reduce-scatter: in step s, member i sends chunk (i−s mod n) to
	// member i+1, which folds it into its own copy.
	for s := 0; s < n-1; s++ {
		// Compute sends from a snapshot so a step is simultaneous.
		type msg struct {
			dst, chunk int
			data       contribution
		}
		var msgs []msg
		for i := 0; i < n; i++ {
			chunk := ((i-s)%n + n) % n
			msgs = append(msgs, msg{dst: order[(i+1)%n], chunk: chunk, data: st[order[i]][chunk].clone()})
		}
		for _, m := range msgs {
			st[m.dst][m.chunk].merge(m.data)
		}
	}
	// After RS, member i owns the complete chunk (i+1 mod n).
	for i := 0; i < n; i++ {
		chunk := (i + 1) % n
		if !st[order[i]][chunk].complete(order) {
			return fmt.Errorf("collective: reduce-scatter incomplete: member %d chunk %d has %v",
				order[i], chunk, keysOf(st[order[i]][chunk]))
		}
	}
	// All-gather: in step s, member i forwards chunk (i+1−s mod n).
	for s := 0; s < n-1; s++ {
		type msg struct {
			dst, chunk int
			data       contribution
		}
		var msgs []msg
		for i := 0; i < n; i++ {
			chunk := ((i+1-s)%n + n) % n
			msgs = append(msgs, msg{dst: order[(i+1)%n], chunk: chunk, data: st[order[i]][chunk].clone()})
		}
		for _, m := range msgs {
			// Gather replaces: the forwarded chunk is already complete.
			st[m.dst][m.chunk].merge(m.data)
		}
	}
	for _, m := range order {
		for c := 0; c < n; c++ {
			if !st[m][c].complete(order) {
				return fmt.Errorf("collective: all-gather incomplete: member %d chunk %d has %v",
					m, c, keysOf(st[m][c]))
			}
		}
	}
	return nil
}

// VerifyHierarchicalAllReduce executes the BlueConnect-style 3-stage
// algorithm of FredEndpointAllReduce at chunk granularity: intra-group
// reduce-scatter, cross-group all-reduce per local shard, intra-group
// all-gather — and checks every member ends with the global reduction.
// groups must be equal-sized.
func VerifyHierarchicalAllReduce(groups [][]int) error {
	if len(groups) == 0 {
		return nil
	}
	k := len(groups[0])
	var all []int
	for _, g := range groups {
		if len(g) != k {
			return fmt.Errorf("collective: unequal group sizes")
		}
		all = append(all, g...)
	}
	// One chunk per local position: chunk j is owned by local member j
	// after the intra-group reduce-scatter.
	st := newChunkState(all, k)

	// Stage 1: intra-group reduce-scatter — local member j accumulates
	// chunk j over its group.
	for _, g := range groups {
		for j := 0; j < k; j++ {
			acc := contribution{}
			for _, m := range g {
				acc.merge(st[m][j])
			}
			st[g[j]][j] = acc
		}
	}
	// Stage 2: cross-group all-reduce of chunk j among the j-th
	// members of every group.
	for j := 0; j < k; j++ {
		acc := contribution{}
		for _, g := range groups {
			acc.merge(st[g[j]][j])
		}
		for _, g := range groups {
			st[g[j]][j] = acc.clone()
		}
	}
	// Stage 3: intra-group all-gather — every member receives every
	// chunk from its group's owner.
	for _, g := range groups {
		for j := 0; j < k; j++ {
			for _, m := range g {
				st[m][j] = st[g[j]][j].clone()
			}
		}
	}
	for _, m := range all {
		for c := 0; c < k; c++ {
			if !st[m][c].complete(all) {
				return fmt.Errorf("collective: hierarchical all-reduce incomplete: member %d chunk %d has %v",
					m, c, keysOf(st[m][c]))
			}
		}
	}
	return nil
}

// VerifyAllToAll executes the shifted-unicast decomposition (Table 2)
// and checks every member receives exactly every other member's block.
func VerifyAllToAll(order []int) error {
	n := len(order)
	received := make(map[int]map[int]bool, n) // dst → srcs seen
	for _, m := range order {
		received[m] = map[int]bool{m: true} // own block is local
	}
	for j := 1; j < n; j++ {
		for i := 0; i < n; i++ {
			src, dst := order[i], order[(i+j)%n]
			if received[dst][src] {
				return fmt.Errorf("collective: all-to-all duplicate block %d→%d at step %d", src, dst, j)
			}
			received[dst][src] = true
		}
	}
	for _, dst := range order {
		if len(received[dst]) != n {
			return fmt.Errorf("collective: all-to-all member %d received %d blocks, want %d",
				dst, len(received[dst]), n)
		}
	}
	return nil
}

func keysOf(c contribution) []int {
	out := make([]int, 0, len(c))
	for k := range c {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}
