// Package faults is the deterministic fault-injection engine: a fault
// plan is an ordered list of timed events — permanent link failures,
// µswitch failures, NPU dropouts and transient bandwidth degradations
// with recovery — and an Injector schedules a plan onto a simulation's
// event queue, applying each event to the flow-level network at its
// simulated time. Plans are either written out explicitly or generated
// from a seed, so every fault scenario replays bit-identically.
package faults

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/wafernet/fred/internal/sim"
)

// EventKind classifies a fault event.
type EventKind int

// Fault event kinds.
const (
	// LinkFail permanently removes one link: every flow crossing it
	// aborts, failing the collective that started it.
	LinkFail EventKind = iota
	// LinkDegrade scales a link's bandwidth by Factor; a positive
	// Recover duration restores the original bandwidth later.
	LinkDegrade
	// SwitchFail takes a µswitch out of service. The network model
	// itself has no switches, so the Injector hands the event to the
	// topology via OnSwitchFail (e.g. FRED bans the middle subnetwork,
	// the mesh kills the router's channels).
	SwitchFail
	// NPUDrop removes an NPU: every link touching its node fails.
	NPUDrop
)

func (k EventKind) String() string {
	switch k {
	case LinkFail:
		return "link-fail"
	case LinkDegrade:
		return "link-degrade"
	case SwitchFail:
		return "switch-fail"
	case NPUDrop:
		return "npu-drop"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one timed fault.
type Event struct {
	At   sim.Time
	Kind EventKind
	// Target selects the victim: a link ID for LinkFail/LinkDegrade, a
	// topology-defined µswitch index for SwitchFail, an NPU node ID for
	// NPUDrop.
	Target int
	// Factor is LinkDegrade's bandwidth multiplier, in (0, 1].
	Factor float64
	// Recover, when positive, is how long after At a LinkDegrade heals.
	Recover sim.Time
}

func (e Event) String() string {
	s := fmt.Sprintf("t=%g %v target=%d", float64(e.At), e.Kind, e.Target)
	if e.Kind == LinkDegrade {
		s += fmt.Sprintf(" factor=%g", e.Factor)
		if e.Recover > 0 {
			s += fmt.Sprintf(" recover=+%g", float64(e.Recover))
		}
	}
	return s
}

// Plan is an ordered fault schedule. Events are applied in slice
// order; Normalize sorts by time (stable, so same-time events keep
// their authored order).
type Plan struct {
	Events []Event
}

// Normalize sorts the plan's events by time, keeping the authored
// order of simultaneous events, and returns the plan.
func (p Plan) Normalize() Plan {
	sort.SliceStable(p.Events, func(a, b int) bool {
		return p.Events[a].At < p.Events[b].At
	})
	return p
}

// Validate checks event fields: a known kind, finite non-negative
// times, a non-negative target, LinkDegrade factors in (0, 1] and a
// finite non-negative recovery. NaN fails every check.
func (p Plan) Validate() error {
	for i, e := range p.Events {
		if e.Kind < LinkFail || e.Kind > NPUDrop {
			return fmt.Errorf("faults: event %d: unknown kind %d", i, int(e.Kind))
		}
		if !finiteNonNegative(e.At) {
			return fmt.Errorf("faults: event %d: time %g not finite and non-negative", i, e.At)
		}
		if e.Target < 0 {
			return fmt.Errorf("faults: event %d: negative target", i)
		}
		if e.Kind == LinkDegrade && !(e.Factor > 0 && e.Factor <= 1) {
			return fmt.Errorf("faults: event %d: degrade factor %g outside (0,1]", i, e.Factor)
		}
		if !finiteNonNegative(e.Recover) {
			return fmt.Errorf("faults: event %d: recovery %g not finite and non-negative", i, e.Recover)
		}
	}
	return nil
}

func finiteNonNegative(t sim.Time) bool { return t >= 0 && !math.IsInf(t, 1) }

// PlanSpec parameterizes RandomPlan: how many targets of each class
// exist, how many events of each kind to draw, and the time horizon
// the events are spread over.
type PlanSpec struct {
	Links    int // candidate link IDs [0, Links)
	NPUs     int // candidate NPU node IDs [0, NPUs)
	Switches int // candidate µswitch indices [0, Switches)

	LinkFails   int
	Degrades    int
	SwitchFails int
	NPUDrops    int

	Horizon sim.Time // events land in (0, Horizon]
}

// RandomPlan draws a seeded fault plan: distinct link-failure victims,
// degradations with factors in [0.1, 0.9] and ~half with recovery, all
// times quantized so replays are exact. The same seed and spec always
// produce the same plan.
func RandomPlan(seed int64, spec PlanSpec) Plan {
	rng := rand.New(rand.NewSource(seed))
	at := func() sim.Time {
		// Quantize to 1/64ths of the horizon: exact float arithmetic.
		return spec.Horizon * sim.Time(1+rng.Intn(64)) / 64
	}
	var p Plan
	failed := map[int]bool{}
	for i := 0; i < spec.LinkFails && len(failed) < spec.Links; i++ {
		t := rng.Intn(spec.Links)
		for failed[t] {
			t = rng.Intn(spec.Links)
		}
		failed[t] = true
		p.Events = append(p.Events, Event{At: at(), Kind: LinkFail, Target: t})
	}
	for i := 0; i < spec.Degrades && spec.Links > 0; i++ {
		e := Event{
			At:     at(),
			Kind:   LinkDegrade,
			Target: rng.Intn(spec.Links),
			Factor: float64(1+rng.Intn(9)) / 10, // 0.1 .. 0.9
		}
		if rng.Intn(2) == 0 {
			e.Recover = spec.Horizon * sim.Time(1+rng.Intn(16)) / 32
		}
		p.Events = append(p.Events, e)
	}
	for i := 0; i < spec.SwitchFails && spec.Switches > 0; i++ {
		p.Events = append(p.Events, Event{At: at(), Kind: SwitchFail, Target: rng.Intn(spec.Switches)})
	}
	for i := 0; i < spec.NPUDrops && spec.NPUs > 0; i++ {
		p.Events = append(p.Events, Event{At: at(), Kind: NPUDrop, Target: rng.Intn(spec.NPUs)})
	}
	return p.Normalize()
}
