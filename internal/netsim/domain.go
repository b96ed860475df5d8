package netsim

// Contention-domain sharding for the waterfilling engine.
//
// The global progressive-filling pass of the original engine touched
// every active flow and every finite link on each recompute. That is
// wasted work whenever the network decomposes into independent
// contention domains — disjoint sets of links never bridged by a
// flow's route — because max-min rates are a pure function of each
// connected component in isolation: churn in one domain cannot move a
// single bit of any other domain's rates.
//
// This file maintains that decomposition incrementally:
//
//   - A union-find partition over finite links, unioned along every
//     activating flow's route. Domains only merge between resets (a
//     detaching flow does not split its domain — splitting eagerly
//     would cost more than the coarseness it saves), so the partition
//     is a conservative over-approximation of the true connectivity.
//     When the last finite-link flow leaves the network the whole
//     partition resets in O(1) by bumping a version stamp.
//   - Per-domain dirty bits replacing the engine's former global
//     fillNeeded flag: flow attach/detach and link Degrade/Restore
//     mark only the affected domain's root, and a recompute fills
//     dirty domains only. Clean domains are a per-domain no-op — their
//     flows keep rates, completion times and telemetry untouched.
//   - Exact connected components rediscovered inside each dirty domain
//     per pass (a second, epoch-stamped union-find). The fill runs per
//     exact component, never per coarse domain, which is what makes
//     lazy skipping bit-identical to the reference oracle: a
//     per-component fill does not interleave its float delta sequence
//     with unrelated components the way one global pass would.
//   - A completion calendar (indexed min-heap keyed by (eta, arming
//     pass, activation seq)) drained by a single proxy scheduler
//     event, so re-arming completions is O(refilled flows), not
//     O(active flows). The key reproduces exactly the (time,
//     insertion-seq) tie-break a cancel-and-recreate implementation
//     produces: within one recompute the reference arms events in
//     activation order, and across recomputes older arming passes hold
//     older sequences.
//
// Dirty domains fill sequentially, in collection order. Every write
// inside a domain fill is domain-local (per-flow rates, per-link epoch
// scratch, disjoint rate-sum slots), and completion arming runs after
// all fills in the same domain order. See DESIGN.md ("Sharded rate
// engine") for the invariants.

import (
	"math"
	"slices"

	"github.com/wafernet/fred/internal/sim"
)

// FillStats counts the work the sharded rate engine has performed.
// All counters are deterministic for a deterministic run (no
// wall-clock), so studies can report them as reproducible cost proxies.
type FillStats struct {
	// Recomputes is the number of rate recomputations (settle +
	// dirty-domain resolution), whether or not any domain needed
	// filling.
	Recomputes uint64
	// FillPasses counts recomputes that filled at least one domain.
	FillPasses uint64
	// DomainsFilled counts dirty coarse domains processed, summed over
	// all passes.
	DomainsFilled uint64
	// ComponentsFilled counts exact connected components refilled.
	ComponentsFilled uint64
	// FlowsFilled counts per-flow rate assignments, summed over all
	// passes — the engine's total fill work. A global engine would
	// perform ActiveFlows assignments per pass.
	FlowsFilled uint64
}

// FillStats returns the engine's cumulative work counters.
func (n *Network) FillStats() FillStats { return n.stats }

// fillScratch is the reusable state of a domain fill, so the steady
// state performs no allocation.
type fillScratch struct {
	flows   []*Flow // the domain's flows, sorted by activation seq
	comps   []*Link // exact-component roots, in first-flow order
	touched []*Link // links touched by the current component fill
}

// ---------------------------------------------------------------------
// Coarse partition: union-find over finite links.
// ---------------------------------------------------------------------

// domEnsure initializes l's partition state for the current partition
// version, making it a singleton domain. Stale state from before a
// version reset is overwritten lazily — the reset itself is O(1).
func (n *Network) domEnsure(l *Link) {
	if l.domVersion == n.partVersion {
		return
	}
	l.domVersion = n.partVersion
	l.domParent = int32(l.ID)
	l.domSize = 1
	l.domDirty = false
	l.domSeen = 0
	l.domNext = nil
	l.domLinkHead, l.domLinkTail = l, l
	l.domFlowHead, l.domFlowTail = nil, nil
}

// domFind returns the root of l's domain, with path halving. l must be
// current-version. Parents are link indices, not pointers, so path
// compression writes no pointer (and pays no GC write barrier).
func (n *Network) domFind(l *Link) *Link {
	links := n.links
	for l.domParent != int32(l.ID) {
		l.domParent = links[l.domParent].domParent
		l = links[l.domParent]
	}
	return l
}

// domUnion merges the domains rooted at a and b and returns the merged
// root. Link and flow membership lists concatenate in O(1).
func domUnion(a, b *Link) *Link {
	if a == b {
		return a
	}
	if a.domSize < b.domSize {
		a, b = b, a
	}
	b.domParent = int32(a.ID)
	a.domSize += b.domSize
	a.domLinkTail.domNext = b.domLinkHead
	a.domLinkTail = b.domLinkTail
	if b.domFlowHead != nil {
		if a.domFlowTail == nil {
			a.domFlowHead, a.domFlowTail = b.domFlowHead, b.domFlowTail
		} else {
			a.domFlowTail.domNext = b.domFlowHead
			b.domFlowHead.domPrev = a.domFlowTail
			a.domFlowTail = b.domFlowTail
		}
	}
	// A dirty absorbed root stays queued in dirtyRoots; flagging the
	// merged root keeps markDomainDirty from double-queueing it, and
	// collectDirtyDomains resolves the stale entry to the merged root.
	if b.domDirty && !a.domDirty {
		a.domDirty = true
	}
	return a
}

// domAttach joins an activating flow to the partition: its route's
// finite links union into one domain, the flow enters that domain's
// membership list, and the domain is marked dirty.
func (n *Network) domAttach(f *Flow) {
	ls := f.finiteLinks
	n.domEnsure(ls[0])
	root := n.domFind(ls[0])
	for _, l := range ls[1:] {
		n.domEnsure(l)
		root = domUnion(root, n.domFind(l))
	}
	f.domPrev = root.domFlowTail
	f.domNext = nil
	if root.domFlowTail == nil {
		root.domFlowHead = f
	} else {
		root.domFlowTail.domNext = f
	}
	root.domFlowTail = f
	f.inDom = true
	n.partActive++
	n.markDomainDirty(root)
}

// domDetach removes a detaching flow from its domain's membership list
// (O(1), doubly linked) and marks the domain dirty — the surviving
// flows' shares change. The domain itself is not split: membership of
// links is conservative until the O(1) whole-partition reset.
func (n *Network) domDetach(f *Flow) {
	if !f.inDom {
		return
	}
	root := n.domFind(f.finiteLinks[0])
	if f.domPrev != nil {
		f.domPrev.domNext = f.domNext
	} else {
		root.domFlowHead = f.domNext
	}
	if f.domNext != nil {
		f.domNext.domPrev = f.domPrev
	} else {
		root.domFlowTail = f.domPrev
	}
	f.domPrev, f.domNext = nil, nil
	f.inDom = false
	n.partActive--
	n.markDomainDirty(root)
}

// markDomainDirty queues a domain root for the next recompute's fill.
// Idempotent per root; absorbed roots resolve via find at collection.
func (n *Network) markDomainDirty(root *Link) {
	if root.domDirty {
		return
	}
	root.domDirty = true
	n.dirtyRoots = append(n.dirtyRoots, root)
}

// domRootOf returns the current domain root of l, or nil when no
// active flow's route has touched l this partition version — then no
// rate can depend on l and its mutation needs no refill.
func (n *Network) domRootOf(l *Link) *Link {
	if l.domVersion != n.partVersion {
		return nil
	}
	return n.domFind(l)
}

// collectDirtyDomains resolves the queued dirty roots into the
// deduplicated procRoots work list, clearing the dirty queue.
func (n *Network) collectDirtyDomains() {
	n.seenEpoch++
	seen := n.seenEpoch
	n.procRoots = n.procRoots[:0]
	for _, l := range n.dirtyRoots {
		if l.domVersion != n.partVersion {
			continue // queued before a partition reset
		}
		r := n.domFind(l)
		if r.domSeen != seen {
			r.domSeen = seen
			n.procRoots = append(n.procRoots, r)
		}
		l.domDirty = false
	}
	for _, r := range n.procRoots {
		r.domDirty = false
	}
	n.dirtyRoots = n.dirtyRoots[:0]
}

// ---------------------------------------------------------------------
// Per-domain fill: exact components, then per-component waterfilling.
// ---------------------------------------------------------------------

// compFind / compUnion are the per-pass exact-component union-find,
// epoch-stamped into the links like the fill scratch, with link-index
// parents like the coarse partition's.
func (n *Network) compFind(l *Link) *Link {
	links := n.links
	for l.compParent != int32(l.ID) {
		l.compParent = links[l.compParent].compParent
		l = links[l.compParent]
	}
	return l
}

func compUnion(a, b *Link) *Link {
	if a == b {
		return a
	}
	if a.compRank < b.compRank {
		a, b = b, a
	}
	b.compParent = int32(a.ID)
	if a.compRank == b.compRank {
		a.compRank++
	}
	return a
}

// fillDomain refills one dirty domain: collect its flows in activation
// order, then replay a stored fill of the same configuration or
// rediscover exact connected components and waterfill each component
// independently, and refresh the domain's per-link rate sums. All
// writes are domain-local, plus the engine's work counters and the
// network's replay store.
func (n *Network) fillDomain(root *Link) {
	sc := &n.fillScratch
	flows := sc.flows[:0]
	sorted := true
	var prev uint64
	for f := root.domFlowHead; f != nil; f = f.domNext {
		if len(flows) > 0 && f.actSeq < prev {
			sorted = false
		}
		prev = f.actSeq
		flows = append(flows, f)
	}
	if !sorted {
		// Domain merges concatenate membership lists out of activation
		// order; restore it — the fill's float accumulation and the
		// telemetry sums below are defined over activation order.
		slices.SortFunc(flows, func(a, b *Flow) int {
			switch {
			case a.actSeq < b.actSeq:
				return -1
			case a.actSeq > b.actSeq:
				return 1
			}
			return 0
		})
	}
	sc.flows = flows
	observed := len(n.obs) > 0
	if len(flows) == 0 {
		// Every flow left: the domain's links carry nothing any more.
		if observed {
			for l := root.domLinkHead; l != nil; l = l.domNext {
				n.rateSum[l.ID] = 0
			}
		}
		return
	}
	// A configuration filled before replays (replay.go).
	key, replayable := n.replayKey(flows)
	var e *replayEntry
	if replayable {
		e = n.replay.find(key, flows)
	}
	var comps int
	if e != nil {
		n.replayApply(e, flows)
		comps = int(e.comps)
	} else {
		comps = n.fillComponents(flows, sc)
		if replayable {
			n.replay.store(key, flows, comps)
		}
	}
	// Per-link rate sums, kept only while an observer is attached (the
	// observer pass and LinkUtil read them): zero the domain's links —
	// including ones whose flows all departed — then accumulate in
	// activation order, the same order the reference's full pass uses,
	// so the float sums match bit-for-bit.
	if observed {
		for l := root.domLinkHead; l != nil; l = l.domNext {
			n.rateSum[l.ID] = 0
		}
		for _, f := range flows {
			for _, l := range f.finiteLinks {
				n.rateSum[l.ID] += f.rate
			}
		}
	}
	n.stats.ComponentsFilled += uint64(comps)
	n.stats.FlowsFilled += uint64(len(flows))
}

// fillComponents rediscovers the exact connected components of the
// domain's flows and waterfills each one. It returns the component
// count.
func (n *Network) fillComponents(flows []*Flow, sc *fillScratch) int {
	epoch := n.fillEpoch
	for _, f := range flows {
		first := f.finiteLinks[0]
		if first.compEpoch != epoch {
			first.compEpoch = epoch
			first.compParent = int32(first.ID)
			first.compRank = 0
		}
		r := n.compFind(first)
		for _, l := range f.finiteLinks[1:] {
			if l.compEpoch != epoch {
				l.compEpoch = epoch
				l.compParent = int32(l.ID)
				l.compRank = 0
			}
			r = compUnion(r, n.compFind(l))
		}
	}
	comps := sc.comps[:0]
	for _, f := range flows {
		r := n.compFind(f.finiteLinks[0])
		if r.compSeen != epoch {
			r.compSeen = epoch
			r.compHead, r.compTail = f, f
			comps = append(comps, r)
		} else {
			r.compTail.compNext = f
			r.compTail = f
		}
		f.compNext = nil
	}
	sc.comps = comps
	for _, c := range comps {
		n.fillComponent(c, sc)
	}
	return len(comps)
}

// fillComponent runs one progressive-filling pass over a single exact
// connected component (flows linked through compNext in activation
// order). The arithmetic — delta selection, rate accumulation order,
// residual updates, the saturation epsilon — is operation-for-operation
// identical to the reference per-component fill, keeping rates
// bit-exact. Each frozen flow records its binding link's index in
// finiteLinks for the replay store.
func (n *Network) fillComponent(comp *Link, sc *fillScratch) {
	epoch := n.fillEpoch
	touched := sc.touched[:0]
	unfrozenCount := 0
	for f := comp.compHead; f != nil; f = f.compNext {
		f.rate = 0
		f.fillFrozen = false
		f.bindIdx = -1
		for _, l := range f.finiteLinks {
			if l.fillEpoch != epoch {
				l.fillEpoch = epoch
				l.residual = l.Bandwidth
				l.unfrozen = 0
				touched = append(touched, l)
			}
			l.unfrozen++
		}
		unfrozenCount++
	}
	for unfrozenCount > 0 {
		delta := math.Inf(1)
		for _, l := range touched {
			if l.unfrozen == 0 {
				continue
			}
			if d := l.residual / float64(l.unfrozen); d < delta {
				delta = d
			}
		}
		if math.IsInf(delta, 1) {
			// Unreachable while every component flow keeps at least one
			// finite link (guaranteed by construction: only flows with
			// finite links join domains), but guard against a future
			// edit turning this loop into a spin.
			for f := comp.compHead; f != nil; f = f.compNext {
				if !f.fillFrozen {
					f.rate = math.Inf(1)
					f.fillFrozen = true
					unfrozenCount--
				}
			}
			break
		}
		for f := comp.compHead; f != nil; f = f.compNext {
			if !f.fillFrozen {
				f.rate += delta
			}
		}
		for _, l := range touched {
			if l.unfrozen > 0 {
				l.residual -= delta * float64(l.unfrozen)
			}
		}
		for f := comp.compHead; f != nil; f = f.compNext {
			if f.fillFrozen {
				continue
			}
			for j, l := range f.finiteLinks {
				if l.residual <= rateEpsilon*l.Bandwidth {
					f.fillFrozen = true
					f.bindIdx = int32(j)
					unfrozenCount--
					if n.crit != nil {
						f.bindLink = l
					}
					break
				}
			}
		}
		for _, l := range touched {
			l.unfrozen = 0
		}
		for f := comp.compHead; f != nil; f = f.compNext {
			if f.fillFrozen {
				continue
			}
			for _, l := range f.finiteLinks {
				l.unfrozen++
			}
		}
	}
	sc.touched = touched
}

// ---------------------------------------------------------------------
// Completion calendar: one proxy event for all flow completions.
// ---------------------------------------------------------------------

// calLess orders the calendar by (eta, arming pass, activation seq) —
// exactly the (time, insertion-seq) order per-flow cancel-and-recreate
// events would produce: the reference arms, at each recompute, the
// flows whose rate changed, in activation order, so a flow armed at an
// earlier pass holds an earlier sequence, and within one pass
// activation order decides. actSeq is unique, making the order total
// and the heap's pop sequence independent of its internal layout.
func calLess(a, b *Flow) bool {
	if a.eta != b.eta {
		return a.eta < b.eta
	}
	if a.etaPass != b.etaPass {
		return a.etaPass < b.etaPass
	}
	return a.actSeq < b.actSeq
}

func (n *Network) calUp(i int) {
	cal := n.cal
	f := cal[i]
	for i > 0 {
		p := (i - 1) / 2
		if !calLess(f, cal[p]) {
			break
		}
		cal[i] = cal[p]
		cal[i].calIdx = i
		i = p
	}
	cal[i] = f
	f.calIdx = i
}

func (n *Network) calDown(i int) {
	cal := n.cal
	f := cal[i]
	for {
		c := 2*i + 1
		if c >= len(cal) {
			break
		}
		if r := c + 1; r < len(cal) && calLess(cal[r], cal[c]) {
			c = r
		}
		if !calLess(cal[c], f) {
			break
		}
		cal[i] = cal[c]
		cal[i].calIdx = i
		i = c
	}
	cal[i] = f
	f.calIdx = i
}

// calUpsert inserts the flow at its (re)computed key, or restores heap
// order in place if it is already queued.
func (n *Network) calUpsert(f *Flow) {
	if f.calIdx >= 0 {
		n.calUp(f.calIdx)
		n.calDown(f.calIdx)
		return
	}
	n.cal = append(n.cal, f)
	n.calUp(len(n.cal) - 1)
}

// calRemove drops the flow from the calendar; a no-op if absent.
func (n *Network) calRemove(f *Flow) {
	i := f.calIdx
	if i < 0 {
		return
	}
	last := len(n.cal) - 1
	moved := n.cal[last]
	n.cal[last] = nil
	n.cal = n.cal[:last]
	f.calIdx = -1
	if i < last {
		n.cal[i] = moved
		moved.calIdx = i
		n.calDown(i)
		n.calUp(i)
	}
}

// armFlow re-times a refilled flow's completion. The ETA is derived
// only when the rate actually changed bitwise (or the flow newly
// activated); an unchanged rate keeps the previously armed ETA and
// calendar key, which is what lets clean domains skip re-arming
// entirely while matching the reference oracle bit-for-bit.
func (n *Network) armFlow(f *Flow, now sim.Time) {
	if f.rate <= 0 {
		// Starved flow (transient only); re-armed on the next refill.
		n.calRemove(f)
		f.etaValid = false
		return
	}
	if f.etaValid && f.rate == f.etaRate {
		return
	}
	if math.IsInf(f.rate, 1) {
		f.eta = now
	} else {
		f.eta = now + f.remaining/f.rate
	}
	f.etaRate = f.rate
	f.etaPass = n.armPass
	f.etaValid = true
	n.calUpsert(f)
}

// armProxy re-times the single proxy event onto the calendar's
// earliest entry (canceling it when the calendar is empty). A fresh
// insertion sequence per re-arm is fine: completions order among
// themselves by calendar key, and the proxy always drains every
// completion due at its timestamp before the recompute that follows.
func (n *Network) armProxy() {
	if len(n.cal) == 0 {
		if n.proxy != nil {
			n.sched.Cancel(n.proxy)
		}
		return
	}
	top := n.cal[0]
	if n.proxy == nil {
		n.proxy = n.sched.At(top.eta, n.fireCompletions)
	} else {
		n.sched.Reschedule(n.proxy, top.eta)
	}
}

// fireCompletions is the proxy's callback: it drains every calendar
// entry due at the current time in calendar order — all of them,
// before the recompute their finishes schedule, exactly as per-flow
// events with pre-recompute sequences would fire — then re-arms the
// proxy for the next horizon. Spurious wakeups (the earliest entry was
// removed after the proxy was armed) drain nothing and re-arm.
func (n *Network) fireCompletions() {
	now := n.sched.Now()
	for len(n.cal) > 0 && n.cal[0].eta <= now {
		f := n.cal[0]
		n.calRemove(f)
		if f.state == FlowActive {
			n.finish(f)
		}
	}
	n.armProxy()
}
