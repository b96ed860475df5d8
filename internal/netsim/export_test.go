package netsim

// Test helpers shared with the external netsim_test package, whose
// tests exercise the observers that live outside the engine.
var (
	Line   = line
	Approx = approx
)

// SetReferenceEverywhere puts every network built from now on onto the
// reference engine (on) or back onto the sharded engine.
func SetReferenceEverywhere(on bool) { referenceEverywhere = on }

// ForceFullFill marks every live contention domain dirty and
// synchronously runs a rate recomputation, for the replay, differential
// and bench tests that time or compare a full fill. The engine itself
// never needs it: the per-domain dirty bits already cover every path
// that can change a rate.
func (n *Network) ForceFullFill() {
	for _, f := range n.active {
		if f != nil && len(f.finiteLinks) > 0 {
			n.markDomainDirty(n.domFind(f.finiteLinks[0]))
		}
	}
	n.recomputeFn()
}

// LinkRates returns each active flow's rate summed per link, for the
// tests that check link capacity and per-domain fills.
func (n *Network) LinkRates() map[LinkID]float64 {
	n.settle()
	out := make(map[LinkID]float64)
	for _, f := range n.active {
		if f == nil {
			continue
		}
		for _, l := range f.links {
			out[l.ID] += f.rate
		}
	}
	return out
}
