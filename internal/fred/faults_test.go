package fred

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// failMiddle fails the first element inside the level-0 middle
// subnetwork k and returns its ID.
func failMiddle(t *testing.T, ic *Interconnect, k int) int {
	t.Helper()
	prefix := "mid[" + string(rune('0'+k)) + "]."
	for _, e := range ic.Elements() {
		if strings.HasPrefix(e.Label, prefix) {
			ic.FailElement(e.ID)
			return e.ID
		}
	}
	t.Fatalf("no element found under %s", prefix)
	return -1
}

func TestFailedMiddleExcludedFromColoring(t *testing.T) {
	ic := NewInterconnect(3, 8)
	id := failMiddle(t, ic, 0)
	if !ic.ElementFailed(id) {
		t.Fatal("FailElement did not stick")
	}
	plan, err := ic.Route([]Flow{Unicast(0, 7), Unicast(1, 6), AllReduce([]int{2, 3, 4})})
	if err != nil {
		t.Fatalf("routing around one failed middle: %v", err)
	}
	for _, a := range plan.Assignments {
		if a.Level == 0 && a.Color == 0 {
			t.Fatalf("flow %d assigned to the failed middle 0", a.Flow)
		}
	}
	for elemID := range plan.config {
		if ic.ElementFailed(elemID) {
			t.Fatalf("plan configures failed element %d", elemID)
		}
	}
}

func TestAllMiddlesFailedIsConflict(t *testing.T) {
	ic := NewInterconnect(3, 8)
	for k := 0; k < 3; k++ {
		failMiddle(t, ic, k)
	}
	_, err := ic.Route([]Flow{Unicast(0, 7)})
	ce, ok := err.(*ConflictError)
	if !ok {
		t.Fatalf("got %v, want ConflictError", err)
	}
	if ce.FailedMiddles != 3 {
		t.Fatalf("FailedMiddles = %d, want 3", ce.FailedMiddles)
	}
}

func TestFailedInputSwitchIsDead(t *testing.T) {
	ic := NewInterconnect(3, 8)
	// in[0] owns external input ports 0 and 1.
	var in0 *Element
	for _, e := range ic.Elements() {
		if e.Label == "in[0]" {
			in0 = e
			break
		}
	}
	if in0 == nil {
		t.Fatal("in[0] not found")
	}
	ic.FailElement(in0.ID)
	_, err := ic.Route([]Flow{Unicast(0, 7)})
	de, ok := err.(*DeadSwitchError)
	if !ok {
		t.Fatalf("got %v, want DeadSwitchError", err)
	}
	if de.Element != "in[0]" || len(de.Flows) != 1 || de.Flows[0] != 0 {
		t.Fatalf("error = %+v, want flow 0 on in[0]", de)
	}
	// Flows avoiding the dead µswitch's ports still route.
	if _, err := ic.Route([]Flow{Unicast(2, 7), AllReduce([]int{3, 4, 5})}); err != nil {
		t.Fatalf("unrelated flows blocked by dead in[0]: %v", err)
	}
}

// TestRouteValidityUnderRandomSwitchFailures is the FRED half of the
// route-validity property: across seeded random fault plans, every
// plan produced on a degraded interconnect configures only alive
// µswitches, and failures surface only as typed errors.
func TestRouteValidityUnderRandomSwitchFailures(t *testing.T) {
	patterns := [][]Flow{
		{Unicast(0, 7), Unicast(1, 6)},
		{AllReduce([]int{0, 1, 2, 3})},
		{Multicast(0, []int{4, 5, 6}), Reduce([]int{1, 2}, 7)},
		{AllReduce([]int{0, 2, 4, 6}), AllReduce([]int{1, 3, 5, 7})},
	}
	routed, degraded := 0, 0
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ic := NewInterconnect(2+rng.Intn(2), 8)
		for i := 1 + rng.Intn(3); i > 0; i-- {
			ic.FailElement(rng.Intn(ic.NumElements()))
		}
		for pi, flows := range patterns {
			plan, err := ic.Route(flows)
			if err != nil {
				switch err.(type) {
				case *ConflictError, *DeadSwitchError:
					degraded++
				default:
					t.Fatalf("seed %d pattern %d: unexpected error type %T: %v", seed, pi, err, err)
				}
				continue
			}
			routed++
			for elemID := range plan.config {
				if ic.ElementFailed(elemID) {
					t.Fatalf("seed %d pattern %d: plan uses failed element %d (%s)",
						seed, pi, elemID, ic.element(elemID).Label)
				}
			}
		}
	}
	if routed == 0 {
		t.Error("no pattern ever routed — fault plans implausibly severe")
	}
	if degraded == 0 {
		t.Error("no pattern ever degraded — fault plans implausibly mild")
	}
}

// FailElement marks an element failed. Subsequent Route calls re-plan
// around it (middle-stage elements) or report DeadSwitchError for the
// flows that need it (first/last-stage elements). Failing is permanent
// and idempotent.
func (ic *Interconnect) FailElement(id int) {
	if id < 0 || id >= len(ic.elements) {
		panic(fmt.Sprintf("fred: FailElement(%d) out of range [0,%d)", id, len(ic.elements)))
	}
	if ic.failed == nil {
		ic.failed = make([]bool, len(ic.elements))
	}
	ic.failed[id] = true
}
