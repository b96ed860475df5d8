package fred

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// randomFlowSet partitions the ports into random groups and turns each
// group with at least two ports into an all-reduce, reduce, multicast
// or unicast flow.
func randomFlowSet(rng *rand.Rand, ports int) []Flow {
	perm := rng.Perm(ports)
	var flows []Flow
	for len(perm) > 0 {
		k := 1 + rng.Intn(len(perm))
		if k > 5 {
			k = 5
		}
		g := perm[:k]
		perm = perm[k:]
		if len(g) < 2 {
			continue
		}
		switch rng.Intn(4) {
		case 0:
			flows = append(flows, AllReduce(g))
		case 1:
			flows = append(flows, Reduce(g[1:], g[0]))
		case 2:
			flows = append(flows, Multicast(g[0], g[1:]))
		default:
			flows = append(flows, Unicast(g[0], g[len(g)-1]))
		}
	}
	return flows
}

// TestRouteGolden pins Plan.String() and every Assignment (or the
// error) for seeded flow sets on Fred_m(12), m = 2..4, on a healthy
// interconnect and with a banned middle — recorded from the router that
// kept each flow's µswitch ports in per-flow maps and built recursion
// paths with fmt.Sprintf.
func TestRouteGolden(t *testing.T) {
	want := map[string]string{
		"m=2 banned=false": "54:df1cf8e36bb325ee",
		"m=2 banned=true":  "9:fc5140e22cee3782",
		"m=3 banned=false": "60:cbf1fe583047cbca",
		"m=3 banned=true":  "53:8dd77a1dda7e9277",
		"m=4 banned=false": "60:90506118af7ad8df",
		"m=4 banned=true":  "60:f2b4972e44aadaeb",
	}
	got := map[string]string{}
	for m := 2; m <= 4; m++ {
		for _, banned := range []bool{false, true} {
			ic := NewInterconnect(m, 12)
			if banned {
				failMiddle(t, ic, 1)
			}
			rng := rand.New(rand.NewSource(int64(17 * m)))
			h := sha256.New()
			routed := 0
			for trial := 0; trial < 60; trial++ {
				flows := randomFlowSet(rng, 12)
				plan, err := ic.Route(flows)
				if err != nil {
					fmt.Fprintf(h, "trial %d: %v\n", trial, err)
					continue
				}
				routed++
				fmt.Fprintf(h, "trial %d:\n%s", trial, plan.String())
				for _, a := range plan.Assignments {
					fmt.Fprintf(h, "%d %q %d %d\n", a.Level, a.Path, a.Flow, a.Color)
				}
			}
			key := fmt.Sprintf("m=%d banned=%v", m, banned)
			got[key] = fmt.Sprintf("%d:%s", routed, hex.EncodeToString(h.Sum(nil))[:16])
		}
	}
	for key, g := range got {
		if want[key] != g {
			t.Errorf("%s: digest %q, want %q", key, g, want[key])
		}
	}
	if t.Failed() {
		t.Logf("got %#v", got)
	}
}
