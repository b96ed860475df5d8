package topology

import (
	"math"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/netobs"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// Streaming from every I/O controller concurrently must reproduce the
// paper's (2N−1) mesh hotspot law in the link telemetry: the top-K
// report's hottest link is a mesh edge saturated at utilization 1,
// shared by MaxIOChannelOverlap broadcast trees, and the per-stream
// rate collapses to LinkBW/overlap — the StreamUtilization fraction
// of channel line rate (≈0.65 on the 5×4 baseline, Section 8.2).
func TestMeshHotspotMatchesIOChannelOverlap(t *testing.T) {
	s := sim.NewScheduler()
	net := netsim.New(s)
	netobs.AttachLinkStats(net)
	cfg := DefaultMeshConfig()
	m := NewMesh(net, cfg)

	overlap := m.MaxIOChannelOverlap()
	if w, h := m.Dims(); w == h && overlap != 2*w-1 {
		t.Fatalf("square-mesh overlap = %d, want 2N-1 = %d", overlap, 2*w-1)
	}
	if overlap != 9 { // (2·5−1) on the 5×4 baseline, Section 3.2.1
		t.Fatalf("5x4 overlap = %d, want 9", overlap)
	}

	const bytes = 1e9
	flows := make([]*netsim.Flow, m.IOCCount())
	for i := range flows {
		flows[i] = net.StartFlow(netsim.FlowSpec{
			Links: m.IOCLoadTree(i), Bytes: bytes, Latency: 0, Label: "stream",
		})
	}

	// Sample steady-state rates just after activation: the slowest
	// stream is pinned to its fair share of the hottest mesh link.
	wantRate := cfg.LinkBW / float64(overlap)
	s.At(1e-9, func() {
		netobs.TopLinks(net, 0) // forces a settle so Rate() is current
		minRate := math.Inf(1)
		for _, f := range flows {
			if r := f.Rate(); r < minRate {
				minRate = r
			}
		}
		if math.Abs(minRate-wantRate)/wantRate > 1e-6 {
			t.Errorf("min stream rate = %g, want LinkBW/overlap = %g", minRate, wantRate)
		}
		if got, want := minRate/cfg.IOCBW, m.StreamUtilization(); math.Abs(got-want)/want > 1e-6 {
			t.Errorf("stream utilization = %g, want %g", got, want)
		}
	})
	s.Run()

	top := netobs.TopLinks(net, 3)
	if len(top) != 3 {
		t.Fatalf("TopLinks(3) returned %d rows", len(top))
	}
	hot := top[0]
	if !strings.HasPrefix(hot.Name, "mesh ") {
		t.Fatalf("hottest link = %q, want a mesh edge, not an I/O attach", hot.Name)
	}
	if math.Abs(hot.PeakUtil-1) > 1e-6 {
		t.Fatalf("hottest link peak util = %g, want saturated at 1", hot.PeakUtil)
	}
	if hot.MeanUtil <= 0 || hot.MeanUtil > 1+1e-9 {
		t.Fatalf("hottest link mean util = %g, want in (0, 1]", hot.MeanUtil)
	}
	// The hotspot carried `overlap` of the 18 streams; an I/O attach
	// link carries exactly one, so it can never outrank the hotspot.
	if hot.Bytes < float64(overlap)*bytes-1e-3 {
		t.Fatalf("hotspot carried %g bytes, want at least overlap·stream = %g",
			hot.Bytes, float64(overlap)*bytes)
	}
	for _, u := range top {
		if u.MeanUtil > hot.MeanUtil {
			t.Fatalf("TopLinks not sorted by mean util: %+v", top)
		}
	}
}
