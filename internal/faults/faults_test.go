package faults

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

func testNet() (*sim.Scheduler, *netsim.Network, []netsim.LinkID) {
	s := sim.NewScheduler()
	net := netsim.New(s)
	var nodes []netsim.NodeID
	for i := 0; i < 4; i++ {
		nodes = append(nodes, net.AddNode())
	}
	var links []netsim.LinkID
	for i := 0; i < 3; i++ {
		links = append(links, net.AddLink(nodes[i], nodes[i+1], 100, 0, "l"))
	}
	return s, net, links
}

func TestRandomPlanDeterministic(t *testing.T) {
	spec := PlanSpec{Links: 20, NPUs: 10, Switches: 6,
		LinkFails: 4, Degrades: 3, SwitchFails: 2, NPUDrops: 1, Horizon: 10}
	a := RandomPlan(42, spec)
	b := RandomPlan(42, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := RandomPlan(43, spec)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(a.Events); i++ {
		if a.Events[i].At < a.Events[i-1].At {
			t.Fatal("normalized plan out of time order")
		}
	}
}

// badEvents are events no network can apply: each fails Validate.
var badEvents = []Event{
	{At: -1, Kind: LinkFail},
	{Kind: LinkFail, Target: -2},
	{Kind: LinkDegrade, Factor: 0},
	{Kind: LinkDegrade, Factor: 1.5},
	{Kind: LinkDegrade, Factor: math.NaN()},
	{Kind: LinkDegrade, Factor: 0.5, Recover: -1},
	{Kind: LinkDegrade, Factor: 0.5, Recover: math.NaN()},
	{Kind: LinkDegrade, Factor: 0.5, Recover: math.Inf(1)},
	{At: math.NaN(), Kind: LinkFail},
	{At: math.Inf(1), Kind: NPUDrop},
	{At: math.Inf(-1), Kind: LinkFail},
	{Kind: NPUDrop + 1},
	{Kind: -1},
}

func TestValidateRejectsBadEvents(t *testing.T) {
	for i, e := range badEvents {
		if (Plan{Events: []Event{e}}).Validate() == nil {
			t.Errorf("event %d (%v) validated", i, e)
		}
	}
}

// TestScheduleRejectsUnappliableEvents: a link target the network does
// not have, or a degrade of a contention-free link, fails Schedule
// before anything is armed.
func TestScheduleRejectsUnappliableEvents(t *testing.T) {
	s, net, links := testNet()
	free := net.AddLink(0, 1, math.Inf(1), 0, "free")
	n := net.NumLinks()
	for _, e := range []Event{
		{At: 1, Kind: LinkFail, Target: n},
		{At: 1, Kind: LinkDegrade, Target: n + 7, Factor: 0.5},
		{At: 1, Kind: LinkDegrade, Target: int(free), Factor: 0.5},
	} {
		plan := Plan{Events: []Event{{At: 1, Kind: LinkFail, Target: int(links[0])}, e}}
		if err := NewInjector(net).Schedule(plan); err == nil {
			t.Errorf("%v scheduled", e)
		}
	}
	if s.Pending() != 0 {
		t.Fatalf("%d events armed by rejected plans, want 0", s.Pending())
	}
	// In range and on a finite link, the same kinds schedule.
	ok := Plan{Events: []Event{{At: 1, Kind: LinkFail, Target: n - 1}, {At: 1, Kind: LinkDegrade, Target: 0, Factor: 0.5}}}
	if err := NewInjector(net).Schedule(ok); err != nil {
		t.Fatal(err)
	}
}

func TestInjectorAppliesEventsAtTime(t *testing.T) {
	s, net, links := testNet()
	reg := metrics.NewRegistry()
	inj := NewInjector(net).SetMetrics(reg)
	plan := Plan{Events: []Event{
		{At: 2, Kind: LinkDegrade, Target: int(links[1]), Factor: 0.5, Recover: 3},
		{At: 4, Kind: LinkFail, Target: int(links[0])},
		{At: 6, Kind: NPUDrop, Target: 3},
	}}
	if err := inj.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(3)
	if net.Link(links[1]).Bandwidth != 50 {
		t.Fatalf("degrade not applied: BW=%g", net.Link(links[1]).Bandwidth)
	}
	if net.Link(links[0]).Failed() {
		t.Fatal("link failed early")
	}
	s.RunUntil(5)
	if !net.Link(links[0]).Failed() {
		t.Fatal("link-fail not applied")
	}
	if net.Link(links[1]).Bandwidth != 100 {
		t.Fatalf("degrade did not recover at t=5: BW=%g", net.Link(links[1]).Bandwidth)
	}
	s.Run()
	if !net.Link(links[2]).Failed() {
		t.Fatal("NPU drop did not fail its links")
	}
	for name, want := range map[string]float64{
		"fault/links_failed":    1,
		"fault/links_degraded":  1,
		"fault/links_restored":  1,
		"fault/npus_dropped":    1,
		"fault/switches_failed": 0,
	} {
		if got := reg.Lookup(name).Value(); got != want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}

func TestInjectorSwitchFailRequiresHook(t *testing.T) {
	_, net, _ := testNet()
	inj := NewInjector(net)
	err := inj.Schedule(Plan{Events: []Event{{At: 1, Kind: SwitchFail, Target: 0}}})
	if err == nil || !strings.Contains(err.Error(), "OnSwitchFail") {
		t.Fatalf("err = %v, want missing-hook error", err)
	}
	var got []int
	inj.OnSwitchFail(func(id int) { got = append(got, id) })
	if err := inj.Schedule(Plan{Events: []Event{
		{At: 1, Kind: SwitchFail, Target: 2},
		{At: 2, Kind: SwitchFail, Target: 5},
	}}); err != nil {
		t.Fatal(err)
	}
	net.Scheduler().Run()
	if !reflect.DeepEqual(got, []int{2, 5}) {
		t.Fatalf("switch hook saw %v, want [2 5]", got)
	}
}

func TestInjectorRedundantFaultsAreNoops(t *testing.T) {
	s, net, links := testNet()
	reg := metrics.NewRegistry()
	inj := NewInjector(net).SetMetrics(reg)
	plan := Plan{Events: []Event{
		{At: 1, Kind: LinkFail, Target: int(links[0])},
		{At: 2, Kind: LinkFail, Target: int(links[0])},                 // already dead
		{At: 3, Kind: LinkDegrade, Target: int(links[0]), Factor: 0.5}, // dead: skip
	}}
	if err := inj.Schedule(plan); err != nil {
		t.Fatal(err)
	}
	s.Run()
	if got := reg.Lookup("fault/links_failed").Value(); got != 1 {
		t.Fatalf("links_failed = %g, want 1", got)
	}
	if got := reg.Lookup("fault/links_degraded").Value(); got != 0 {
		t.Fatalf("links_degraded = %g, want 0", got)
	}
}

func TestEventStrings(t *testing.T) {
	e := Event{At: 2, Kind: LinkDegrade, Target: 7, Factor: 0.5, Recover: 3}
	s := e.String()
	for _, want := range []string{"link-degrade", "target=7", "factor=0.5", "recover=+3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("%q missing %q", s, want)
		}
	}
	if LinkFail.String() != "link-fail" || SwitchFail.String() != "switch-fail" ||
		NPUDrop.String() != "npu-drop" {
		t.Fatal("kind names")
	}
}
