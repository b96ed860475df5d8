package netsim

import (
	"math"

	"github.com/wafernet/fred/internal/sim"
)

// This file keeps a straightforward waterfilling implementation as the
// differential-testing oracle for the sharded engine (domain.go): on
// every recompute it rediscovers the exact connected components of the
// active flows' routes from first principles with freshly allocated
// maps, refills every component, and re-times completions with
// per-flow cancel-and-recreate scheduler events. No partition cache,
// no dirty bits, no calendar, no parallelism — nothing the engine's
// incremental bookkeeping could hide a bug behind. useReferenceEngine
// switches a network onto it, and the property tests in
// differential_test.go assert that both engines produce bit-identical
// rates, completion times and orders, telemetry and link byte counters
// over randomized churn, fault and domain-merge/split scenarios;
// referenceEverywhere runs whole studies on it (sweep_test.go). It is
// not reachable from production paths.
//
// The oracle fills per exact component (not one global pass) because
// the sharded engine's lazy skipping depends on it: a component's
// max-min rates are a pure function of the component, but the *float
// delta sequence* of a global fill interleaves unrelated components
// and rounds differently. Per-component filling is the canonical
// semantics both implementations share. Completions likewise follow
// the shared keep-unchanged-ETA discipline: a flow whose rate came out
// of the refill bitwise-unchanged keeps its armed completion event —
// re-deriving the ETA from the settled remaining would shift it by
// ULPs, which the engine's clean-domain skipping could never
// reproduce.

// referenceEverywhere puts every network New builds on the reference
// engine. Only tests set it (export_test.go), around a whole sweep, so
// every study meets the oracle; it is read, never written, while
// networks are being built.
var referenceEverywhere bool

// useReferenceEngine routes all future rate recomputations of this
// network through referenceRecompute. It must be called before any
// flow is started and cannot be undone: the two engines keep different
// completion-event lifecycles, so switching mid-run is unsupported.
func (n *Network) useReferenceEngine() {
	n.recomputeFn = n.referenceRecompute
}

// referenceRecompute settles, rebuilds the exact route-connectivity
// components of all active flows, refills every component, and
// re-times completions — the oracle the sharded engine is tested
// against.
func (n *Network) referenceRecompute() {
	n.dirty = false
	n.settle()
	n.stats.Recomputes++
	n.armPass++

	// The shared activate/detach/fault paths still maintain the
	// engine's partition bookkeeping; drain its queues so they cannot
	// grow without bound under the oracle, mirroring the engine's
	// collection and O(1) reset points.
	for _, l := range n.dirtyRoots {
		l.domDirty = false
	}
	n.dirtyRoots = n.dirtyRoots[:0]

	// Exact connected components from first principles: a fresh
	// union-find over the finite links of every active route.
	parent := make(map[*Link]*Link)
	find := func(l *Link) *Link {
		for parent[l] != l {
			parent[l] = parent[parent[l]]
			l = parent[l]
		}
		return l
	}
	ensure := func(l *Link) {
		if _, ok := parent[l]; !ok {
			parent[l] = l
		}
	}
	for _, f := range n.active {
		if f == nil || len(f.finiteLinks) == 0 {
			continue
		}
		ensure(f.finiteLinks[0])
		r := find(f.finiteLinks[0])
		for _, l := range f.finiteLinks[1:] {
			ensure(l)
			if r2 := find(l); r2 != r {
				parent[r2] = r
			}
		}
	}

	// Group flows by component, components ordered by their first
	// flow's activation — the same order the engine's sequential merge
	// visits them in.
	groups := make(map[*Link][]*Flow)
	var order []*Link
	for _, f := range n.active {
		if f == nil {
			continue
		}
		if len(f.finiteLinks) == 0 {
			// Contention-free flow: freeze at infinite rate upfront.
			f.rate = math.Inf(1)
			continue
		}
		r := find(f.finiteLinks[0])
		if _, ok := groups[r]; !ok {
			order = append(order, r)
		}
		groups[r] = append(groups[r], f)
	}
	for _, r := range order {
		n.referenceFillComponent(groups[r])
	}
	for i := range n.freePending {
		n.freePending[i] = nil
	}
	n.freePending = n.freePending[:0]
	if n.partActive == 0 {
		n.partVersion++
	}

	// Re-time completions at the new rates, iterating the active slice
	// in activation order so same-time events tie-break by activation —
	// the (time, seq) contract. A flow whose rate is bitwise-unchanged
	// keeps its pending event (and therefore its older insertion
	// sequence: events armed at earlier passes fire first among equal
	// ETAs — the order the engine's calendar key (eta, pass, actSeq)
	// reproduces).
	now := n.sched.Now()
	for _, f := range n.active {
		if f == nil {
			continue
		}
		if f.rate <= 0 {
			if f.complete != nil {
				n.sched.Cancel(f.complete)
				f.complete = nil
			}
			f.etaValid = false
			continue
		}
		if f.etaValid && f.rate == f.etaRate {
			continue
		}
		var eta sim.Time
		if math.IsInf(f.rate, 1) {
			eta = now
		} else {
			eta = now + f.remaining/f.rate
		}
		f.eta, f.etaRate, f.etaValid = eta, f.rate, true
		if f.complete != nil {
			n.sched.Cancel(f.complete)
		}
		g := f
		f.complete = n.sched.At(eta, func() {
			if g.state != FlowActive {
				return // stale completion: flow left the active set
			}
			n.finish(g)
		})
	}

	// The reference engine keeps no per-link rate sums between passes;
	// rebuild them for the observers (observePass, LinkUtil).
	n.ensureRateSum()
	clear(n.rateSum)
	for _, f := range n.active {
		if f == nil {
			continue
		}
		for _, l := range f.finiteLinks {
			n.rateSum[l.ID] += f.rate
		}
	}
	if n.wants(EvPass) {
		n.observePass(now)
	}
}

// referenceFillComponent runs progressive filling over one exact
// connected component with freshly allocated map scratch: raise all
// unfrozen flows' rates together; whenever a link saturates, freeze
// its flows at the current rate. Deterministic despite map iteration:
// the delta is a pure min over values, residual updates are per-link
// independent, and per-flow iteration follows the flows slice.
func (n *Network) referenceFillComponent(flows []*Flow) {
	type linkState struct {
		residual float64
		unfrozen int
	}
	states := make(map[*Link]*linkState)
	frozen := make(map[*Flow]bool, len(flows))
	unfrozenCount := 0
	for _, f := range flows {
		f.rate = 0
		for _, l := range f.finiteLinks {
			st := states[l]
			if st == nil {
				st = &linkState{residual: l.Bandwidth}
				states[l] = st
			}
			st.unfrozen++
		}
		unfrozenCount++
	}
	for unfrozenCount > 0 {
		delta := math.Inf(1)
		for _, st := range states {
			if st.unfrozen == 0 {
				continue
			}
			if d := st.residual / float64(st.unfrozen); d < delta {
				delta = d
			}
		}
		if math.IsInf(delta, 1) {
			for _, f := range flows {
				if !frozen[f] {
					f.rate = math.Inf(1)
					frozen[f] = true
					unfrozenCount--
				}
			}
			break
		}
		for _, f := range flows {
			if !frozen[f] {
				f.rate += delta
			}
		}
		for _, st := range states {
			if st.unfrozen > 0 {
				st.residual -= delta * float64(st.unfrozen)
			}
		}
		// Freeze flows crossing any saturated link.
		for _, f := range flows {
			if frozen[f] {
				continue
			}
			for _, l := range f.finiteLinks {
				st := states[l]
				if st.residual <= rateEpsilon*l.Bandwidth {
					frozen[f] = true
					unfrozenCount--
					if n.crit != nil {
						f.bindLink = l
					}
					break
				}
			}
		}
		for _, st := range states {
			st.unfrozen = 0
		}
		for _, f := range flows {
			if frozen[f] {
				continue
			}
			for _, l := range f.finiteLinks {
				states[l].unfrozen++
			}
		}
	}
}
