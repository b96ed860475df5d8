package netsim

// Fill replay. A training run replays the same collectives once per
// micro-batch, so a dirty domain is usually refilled into a
// configuration — the same routes, activated in the same order, over
// the same link bandwidths — that the network has filled before. The
// fill is a pure function of that configuration: the per-component
// progressive filling reads only each flow's finite links, in
// activation order, and those links' bandwidths. So a repeated fill
// can copy the result the first fill stored instead of recomputing it.
//
// The key is the ordered list of the domain's route serials (every
// PrepareRoute draws a fresh one, and a PreparedRoute never changes)
// under the network's StateEpoch (every Fail, Degrade and Restore
// bumps it, and nothing else changes a bandwidth). A domain replays
// only when every flow in it rides a PreparedRoute: a flow started on
// FlowSpec.Links has serial 0, and its domain always fills. A link
// failure aborts the flows on it and bumps StateEpoch, so no stored
// fill outlives it. The stored value is each flow's rate, the
// index of its binding link in finiteLinks, and the component count,
// so a replay leaves the flows and FillStats exactly as the fill did.
//
// Entries live in flat arenas owned by the network: an open-addressed
// table of entry indices, the entries, and their per-flow records.
// The arenas are bounded; they are emptied when StateEpoch moves and
// when a new entry would overflow them, so a warm network stores and
// replays without allocating.

import "math/bits"

const (
	// replayMaxFlows bounds the per-flow records a network keeps (16
	// bytes each), replayMaxEntries the stored fills. A network's
	// first replayable domain sizes the arenas for a training
	// iteration's worth (about 400 flows in 60 fills on a 20-NPU
	// wafer); larger runs grow them.
	replayMaxFlows   = 1 << 15
	replayMaxEntries = 1 << 11
	replayInitFlows  = 1 << 9
	replayInitTable  = 1 << 7
)

// replayFlow is one flow's share of a stored fill.
type replayFlow struct {
	route uint32  // the flow's PreparedRoute serial
	bind  int32   // binding link's index in finiteLinks; -1 if none froze it
	rate  float64 // the rate the fill assigned
}

// replayEntry is one stored fill: flows[off : off+n] in activation
// order, and the number of exact components the fill found.
type replayEntry struct {
	hash  uint64
	off   int32
	n     int32
	comps int32
}

// replaySlot is a hash-table slot; it is empty unless gen matches the
// table's current generation.
type replaySlot struct {
	gen   uint32
	entry int32
}

// fillReplay is a network's store of past domain fills.
type fillReplay struct {
	// off turns replay off (tests compare against the plain fill).
	off     bool
	epoch   uint64 // the StateEpoch every stored fill ran under
	gen     uint32
	table   []replaySlot
	entries []replayEntry
	flows   []replayFlow
	// hits counts replayed fills, for tests.
	hits uint64
}

// reset empties the store in O(1): slots of older generations read
// as empty.
func (c *fillReplay) reset() {
	c.gen++
	if c.gen == 0 {
		clear(c.table)
		c.gen = 1
	}
	c.entries = c.entries[:0]
	c.flows = c.flows[:0]
}

// replayKey hashes the domain's ordered route serials. ok is false when
// replay is off or some flow has no serial; then the domain must fill.
// For a replayable domain it readies the store: allocated on first
// use, emptied when StateEpoch has moved since the last fill.
func (n *Network) replayKey(flows []*Flow) (h uint64, ok bool) {
	c := &n.replay
	if c.off {
		return 0, false
	}
	h = uint64(len(flows))
	for _, f := range flows {
		if f.routeID == 0 {
			return 0, false
		}
		h = (bits.RotateLeft64(h, 29) ^ uint64(f.routeID)) * 0x9e3779b97f4a7c15
	}
	if c.table == nil {
		c.table = make([]replaySlot, replayInitTable)
		c.entries = make([]replayEntry, 0, replayInitTable/2)
		c.flows = make([]replayFlow, 0, replayInitFlows)
		c.gen = 1
	}
	if c.epoch != n.stateEpoch {
		c.epoch = n.stateEpoch
		c.reset()
	}
	return h, true
}

// find returns the stored fill of flows under hash h, or nil.
func (c *fillReplay) find(h uint64, flows []*Flow) *replayEntry {
	mask := uint64(len(c.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		s := c.table[i]
		if s.gen != c.gen {
			return nil
		}
		e := &c.entries[s.entry]
		if e.hash != h || int(e.n) != len(flows) {
			continue
		}
		rec := c.flows[e.off : e.off+e.n]
		match := true
		for j, f := range flows {
			if rec[j].route != f.routeID {
				match = false
				break
			}
		}
		if match {
			return e
		}
	}
}

// replayApply copies a stored fill onto the domain's flows.
func (n *Network) replayApply(e *replayEntry, flows []*Flow) {
	rec := n.replay.flows[e.off : e.off+e.n]
	for j, f := range flows {
		f.rate = rec[j].rate
		if n.crit != nil && rec[j].bind >= 0 {
			f.bindLink = f.finiteLinks[rec[j].bind]
		}
	}
	n.replay.hits++
}

// store records the fill just computed for flows under hash h.
func (c *fillReplay) store(h uint64, flows []*Flow, comps int) {
	if len(flows) > replayMaxFlows {
		return
	}
	if len(c.entries) == replayMaxEntries || len(c.flows)+len(flows) > replayMaxFlows {
		c.reset()
	}
	if 2*(len(c.entries)+1) > len(c.table) {
		c.grow()
	}
	off := len(c.flows)
	for _, f := range flows {
		c.flows = append(c.flows, replayFlow{route: f.routeID, bind: f.bindIdx, rate: f.rate})
	}
	c.entries = append(c.entries, replayEntry{hash: h, off: int32(off), n: int32(len(flows)), comps: int32(comps)})
	c.insert(h, int32(len(c.entries)-1))
}

// insert puts entry index e into the first empty slot of its probe
// sequence.
func (c *fillReplay) insert(h uint64, e int32) {
	mask := uint64(len(c.table) - 1)
	i := h & mask
	for c.table[i].gen == c.gen {
		i = (i + 1) & mask
	}
	c.table[i] = replaySlot{gen: c.gen, entry: e}
}

// grow doubles the table and re-inserts every entry.
func (c *fillReplay) grow() {
	c.table = make([]replaySlot, 2*len(c.table))
	c.gen = 1
	for i, e := range c.entries {
		c.insert(e.hash, int32(i))
	}
}
