package collective

import (
	"encoding/binary"
	"math"
)

// Schedule compiler: a training run asks the Comm for the same handful
// of collectives thousands of times — one all-reduce per microbatch
// per model-parallel shard, one multicast per pipeline hop, one
// all-reduce per gradient bucket, every iteration — and an experiment
// sweep re-asks from scratch in every cell. Each answer is a pure
// function of (wafer topology, collective kind, endpoints/group, byte
// count, fabric fault state), so the Comm memoizes: a canonical key
// maps to an immutable compiled schedule whose transfers carry routes
// pre-resolved by netsim.PrepareRoute, and replay instantiates flows
// from those templates with zero schedule-construction allocations.
//
// Key canonicalization. The key is a compact byte string:
//
//	kind | root | dst | Float64bits(bytes) | fabric-state epoch | len(group) | group...
//
// varint-encoded into a scratch buffer reused across calls, so a warm
// lookup allocates nothing (map index on a string(buf) conversion is
// allocation-free). Bytes enter the key as exact IEEE-754 bits, never
// a rounded size-class: schedules divide the byte count ((a*b)/c ≠
// (a/c)*b in float64), so two requests may share a compiled schedule
// only when their sizes are bit-equal. The group is encoded in caller
// order — order changes the compiled phases, so it must change the key.
//
// Epoch invalidation. The fabric-state epoch (netsim.Network.StateEpoch,
// bumped by every Link.Fail/Degrade/Restore, including the trunk
// degrades that model a failed FRED µswitch) is part of the key: any fabric mutation
// retires exactly the entries planned against the old state, and the
// next request recompiles against the current one. Entries for dead
// epochs are left behind — they are bounded by the fault-plan length
// and keep mid-run invalidation O(1) with no registry of affected keys.
//
// Arena lifetime. Preparing a schedule copies its transfers into one
// []Transfer arena per schedule (phases are full-capacity subslices of
// it) and attaches a PreparedRoute per transfer. The arena and routes
// live exactly as long as the memo entry: they are immutable after
// prepare, shared read-only by every Op replaying the schedule, and
// dropped wholesale when the Comm is garbage (a fresh Comm per cell).
// Prepared routes hold *netsim.Link pointers, so a prepared schedule
// must never leave its network.

// Collective kinds, the first key byte. Values are stable only within
// a process — keys never persist.
const (
	kindAllReduce byte = iota + 1
	kindReduceScatter
	kindAllGather
	kindAllToAll
	kindP2P
	kindMulticast
	kindAllReduceDegraded
)

// buildKey encodes the canonical schedule key into the Comm's scratch
// buffer. root/dst are the endpoints of point-to-point-like kinds
// (zero otherwise); group is the member list in caller order.
func (c *Comm) buildKey(kind byte, root, dst int, group []int, bytes float64) {
	buf := append(c.keyBuf[:0], kind)
	buf = binary.AppendVarint(buf, int64(root))
	buf = binary.AppendVarint(buf, int64(dst))
	buf = binary.AppendUvarint(buf, math.Float64bits(bytes))
	buf = binary.AppendUvarint(buf, c.w.Network().StateEpoch())
	buf = binary.AppendUvarint(buf, uint64(len(group)))
	for _, m := range group {
		buf = binary.AppendVarint(buf, int64(m))
	}
	c.keyBuf = buf
}

// lookup returns the memoized schedule for the key. On a miss the
// encoded key stays in keyBuf for the insert that must follow the
// caller's build.
func (c *Comm) lookup(kind byte, root, dst int, group []int, bytes float64) (Schedule, bool) {
	if !c.memoize {
		return Schedule{}, false
	}
	c.buildKey(kind, root, dst, group, bytes)
	s, ok := c.memo[string(c.keyBuf)]
	return s, ok
}

// insert memoizes a freshly built schedule under the key left in
// keyBuf by the preceding failed lookup, in its prepared form. With
// memoization off it returns the schedule unchanged — the
// compile-every-iteration reference path.
func (c *Comm) insert(raw Schedule) Schedule {
	if !c.memoize {
		return raw
	}
	s := c.prepare(raw)
	c.memo[string(c.keyBuf)] = s
	return s
}

// prepare copies a schedule into its replay form: every transfer of
// every phase lands in one arena (phases are full-capacity subslices,
// so the whole schedule is a single backing array) and carries its
// route pre-resolved against the Comm's network. Errored and empty
// schedules pass through untouched.
func (c *Comm) prepare(s Schedule) Schedule {
	if s.Err != nil || len(s.Phases) == 0 {
		return s
	}
	net := c.w.Network()
	total := 0
	for _, ph := range s.Phases {
		total += len(ph)
	}
	arena := make([]Transfer, 0, total)
	out := Schedule{Name: s.Name, Phases: make([]Phase, len(s.Phases))}
	for i, ph := range s.Phases {
		start := len(arena)
		for _, t := range ph {
			t.prepared = nil
			if len(t.Links) > 0 {
				t.prepared = net.PrepareRoute(t.Links)
			}
			arena = append(arena, t)
		}
		end := len(arena)
		out.Phases[i] = Phase(arena[start:end:end])
	}
	return out
}

// SetMemoize turns schedule memoization on or off (on by default).
// Turning it off makes every request rebuild from scratch — the
// reference behaviour the property tests compare replay against —
// and detaches nothing: turning it back on resumes with the existing
// memo.
func (c *Comm) SetMemoize(on bool) { c.memoize = on }
