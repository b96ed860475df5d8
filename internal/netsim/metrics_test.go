package netsim_test

import (
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netobs"
	. "github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// A single 1000-byte flow on a 100 B/s link is busy (util 1.0) over
// [0,10) and idle over the trailing [10,15); the time-weighted
// histogram must carry both intervals once EndRun closes the tail.
func TestLinkUtilHistogram(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	reg := metrics.NewRegistry()
	netobs.AttachMetrics(net, reg)
	net.StartFlow(FlowSpec{Links: links, Bytes: 1000, Latency: 0})
	s.At(15, func() {}) // extend the horizon past completion
	s.Run()
	net.EndRun()

	h := reg.Lookup("link/l/util")
	if h == nil {
		t.Fatal("no utilization histogram registered for the link")
	}
	if got := h.Count(); !approx(got, 15) {
		t.Fatalf("total weighted time = %g, want the 15s horizon", got)
	}
	if got := h.Sum() / h.Count(); !approx(got, 10.0/15) {
		t.Fatalf("time-weighted mean util = %g, want 2/3", got)
	}
	if h.Min() != 0 || h.Max() != 1 {
		t.Fatalf("min/max util = %g/%g, want 0/1", h.Min(), h.Max())
	}
	// 10 of 15 seconds at full utilization: p50 and p95 both land in
	// the saturated bucket.
	if got := h.Quantile(0.95); !approx(got, 1) {
		t.Fatalf("p95 util = %g, want 1", got)
	}

	for name, want := range map[string]float64{
		"net/flows_started":   1,
		"net/flows_completed": 1,
		"net/bytes_delivered": 1000,
	} {
		sres := reg.Lookup(name)
		if sres == nil || sres.Value() != want {
			t.Fatalf("%s = %v, want %g", name, sres, want)
		}
	}

	// A second run end with no elapsed time must not re-charge the tail.
	net.EndRun()
	if got := h.Count(); !approx(got, 15) {
		t.Fatalf("repeated EndRun changed total weight to %g", got)
	}
}

// Two flows sharing a bottleneck: the downstream link runs at half
// rate while both are active, then full rate — the distribution must
// separate the p50 from the max.
func TestLinkUtilDistributionFractional(t *testing.T) {
	s := sim.NewScheduler()
	net := New(s)
	a, b, c := net.AddNode(), net.AddNode(), net.AddNode()
	l0 := net.AddLink(a, b, 100, 0, "shared")
	l1 := net.AddLink(b, c, 100, 0, "down")
	reg := metrics.NewRegistry()
	netobs.AttachMetrics(net, reg)
	// Long flow across both links; short flow contends on the shared
	// link. Fair share: both get 50 B/s until the short one finishes
	// at t=10, then the long one runs at 100 B/s.
	net.StartFlow(FlowSpec{Links: []LinkID{l0, l1}, Bytes: 1000, Latency: 0})
	net.StartFlow(FlowSpec{Links: []LinkID{l0}, Bytes: 500, Latency: 0})
	s.Run()
	net.EndRun()

	h := reg.Lookup("link/down/util")
	if h == nil {
		t.Fatal("no histogram for the downstream link")
	}
	// Long flow: 500 bytes by t=10, remaining 500 at 100 B/s → done
	// t=15. Downstream util: 0.5 over [0,10), 1.0 over [10,15).
	if got := h.Count(); !approx(got, 15) {
		t.Fatalf("downstream weighted time = %g, want 15", got)
	}
	if got := h.Sum() / h.Count(); !approx(got, (0.5*10+1.0*5)/15) {
		t.Fatalf("downstream mean util = %g, want 2/3", got)
	}
	// p50 falls in the 0.5 interval (10 of 15 seconds); the estimator
	// returns that bucket's upper bound, strictly below the max.
	p50, p95 := h.Quantile(0.50), h.Quantile(0.95)
	if p50 >= 1 || p50 < 0.5 {
		t.Fatalf("p50 = %g, want in [0.5, 1)", p50)
	}
	if !approx(p95, 1) {
		t.Fatalf("p95 = %g, want 1", p95)
	}

	// TopLinks surfaces the distribution on its rows.
	top := netobs.TopLinks(net, 0)
	for _, u := range top {
		if !u.HasDist {
			t.Fatalf("link %q has no distribution despite a metrics observer", u.Name)
		}
	}
	if top[0].Name != "shared" {
		t.Fatalf("hottest link %q, want shared", top[0].Name)
	}
	if got := top[1].P95Util; !approx(got, 1) {
		t.Fatalf("downstream row p95 = %g, want 1", got)
	}
	if got := top[1].P50Util; got >= 1 {
		t.Fatalf("downstream row p50 = %g, want < 1", got)
	}
}

// Without a metrics observer the LinkUsage rows carry no distribution
// and no registry is found.
func TestTopLinksWithoutMetrics(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: 0})
	s.Run()
	for _, u := range netobs.TopLinks(net, 0) {
		if u.HasDist || u.P50Util != 0 || u.P95Util != 0 {
			t.Fatalf("distribution fields set without metrics: %+v", u)
		}
	}
	if netobs.Registry(net) != nil {
		t.Fatal("Registry non-nil without a metrics observer")
	}
}

// The zero-horizon hotspot table must say why every mean is zero
// instead of silently printing misleading rows.
func TestHotspotTableZeroHorizonNote(t *testing.T) {
	s := sim.NewScheduler()
	net, _ := line(s, 2, 100)
	tbl := netobs.HotspotTable(net, "hotspots", 0)
	if !strings.Contains(tbl.String(), "zero simulated horizon") {
		t.Fatalf("zero-horizon table missing explanatory note:\n%s", tbl.String())
	}

	// After simulated time passes, the note disappears.
	s2 := sim.NewScheduler()
	net2, links2 := line(s2, 2, 100)
	net2.StartFlow(FlowSpec{Links: links2, Bytes: 100, Latency: 0})
	s2.Run()
	if strings.Contains(netobs.HotspotTable(net2, "hotspots", 0).String(), "zero simulated horizon") {
		t.Fatal("note emitted despite nonzero horizon")
	}
}
