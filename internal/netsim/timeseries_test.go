package netsim_test

import (
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netobs"
	. "github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/timeseries"
)

// attachRecorder wires a flight recorder onto a network the way the
// experiment session does.
func attachRecorder(s *sim.Scheduler, net *Network) *timeseries.Recorder {
	rec := timeseries.NewRecorder(timeseries.Config{Interval: 1, Capacity: 64})
	netobs.AttachTimeseries(net, rec)
	return rec
}

// seriesByName returns the recorder's (time, value) samples per probe
// name, as its artifact cell holds them.
func seriesByName(rec *timeseries.Recorder) map[string][][2]float64 {
	out := map[string][][2]float64{}
	for _, sd := range rec.Snapshot().Series {
		out[sd.Name] = sd.Samples
	}
	return out
}

// TestTimeseriesProbes: the recorder's network probes track flow
// activity, completions, delivered bytes and fill work over the run.
func TestTimeseriesProbes(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	rec := attachRecorder(s, net)

	net.StartFlow(FlowSpec{Links: links, Bytes: 500, Latency: -1, Label: "a"})
	net.StartFlow(FlowSpec{Links: links, Bytes: 500, Latency: -1, Label: "b"})
	s.Run()
	net.EndRun() // the recorder's closing sample

	series := seriesByName(rec)
	for _, name := range []string{
		"sched/pending", "sched/fired", "net/active_flows",
		"net/flows_completed", "net/bytes_delivered",
		"net/fill/recomputes", "net/fill/domains_filled", "net/fill/flows_filled",
		"net/util/max", "net/util/topk_mean",
	} {
		if _, ok := series[name]; !ok {
			t.Fatalf("probe %q not registered", name)
		}
	}
	last := func(name string) float64 {
		v := series[name]
		return v[len(v)-1][1]
	}
	if got := last("net/flows_completed"); got != 2 {
		t.Errorf("final flows_completed = %g, want 2", got)
	}
	if got := last("net/bytes_delivered"); got != 1000 {
		t.Errorf("final bytes_delivered = %g, want 1000", got)
	}
	if got := last("net/active_flows"); got != 0 {
		t.Errorf("final active_flows = %g, want 0", got)
	}
	if got := last("net/fill/recomputes"); got <= 0 {
		t.Errorf("final fill recomputes = %g, want > 0", got)
	}
	// Two 500 B flows sharing one 100 B/s link: both at rate 50 until
	// t=10. The sample at t=1 must see the saturated link.
	util := series["net/util/max"]
	sawSaturated := false
	for _, s := range util {
		if s[0] >= 1 && s[0] < 10 && approx(s[1], 1) {
			sawSaturated = true
		}
	}
	if !sawSaturated {
		t.Errorf("net/util/max never sampled 1.0 mid-run: (time, util) samples %v", util)
	}
}

// TestTimeseriesCritProbes: with a critpath recorder attached first,
// the flight recorder also samples the cumulative blame decomposition.
func TestTimeseriesCritProbes(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	net.SetCritPath(critpath.NewRecorder())
	rec := attachRecorder(s, net)

	net.StartFlow(FlowSpec{Links: links, Bytes: 200, Latency: -1})
	end := s.Run()
	rec.Finish(end)

	v, ok := seriesByName(rec)["crit/serial_s"]
	if !ok {
		t.Fatal("crit probes missing")
	}
	// The solo flow closes at t=2 with 2s of serialized blame.
	if got := v[len(v)-1][1]; !approx(got, 2) {
		t.Errorf("final crit/serial_s = %g, want 2", got)
	}
}

// TestTimeseriesObserverEffectFree: attaching the recorder must not
// change a single simulated outcome — same completion times, same
// event counts as an unobserved run.
func TestTimeseriesObserverEffectFree(t *testing.T) {
	type outcome struct {
		end   float64
		fired uint64
		fin   []float64
	}
	runOnce := func(observe bool) outcome {
		s := sim.NewScheduler()
		net, links := line(s, 3, 100)
		var rec *timeseries.Recorder
		if observe {
			rec = attachRecorder(s, net)
		}
		fa := net.StartFlow(FlowSpec{Links: links, Bytes: 300, Latency: -1, Label: "a"})
		fb := net.StartFlow(FlowSpec{Links: links[:1], Bytes: 500, Latency: -1, Label: "b"})
		end := s.Run()
		if observe {
			rec.Finish(end)
			if len(rec.Snapshot().Series[0].Samples) == 0 {
				t.Fatal("observed run recorded nothing")
			}
		}
		return outcome{end: end, fired: s.Fired(), fin: []float64{fa.Finished(), fb.Finished()}}
	}
	plain, observed := runOnce(false), runOnce(true)
	if plain.end != observed.end || plain.fired != observed.fired {
		t.Fatalf("observer effect: end %g/%g fired %d/%d",
			plain.end, observed.end, plain.fired, observed.fired)
	}
	for i := range plain.fin {
		if plain.fin[i] != observed.fin[i] {
			t.Fatalf("flow %d finished at %g observed vs %g plain", i, observed.fin[i], plain.fin[i])
		}
	}
}

// TestFillStatsMetrics: the end of a run exports the rate-engine fill
// counters as netsim/fill/* series, incrementally across run ends.
func TestFillStatsMetrics(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	reg := metrics.NewRegistry()
	netobs.AttachMetrics(net, reg)
	net.StartFlow(FlowSpec{Links: links, Bytes: 1000, Latency: 0})
	s.Run()
	net.EndRun()

	stats := net.FillStats()
	for name, want := range map[string]float64{
		"netsim/fill/recomputes":        float64(stats.Recomputes),
		"netsim/fill/fill_passes":       float64(stats.FillPasses),
		"netsim/fill/lazy_skips":        float64(stats.Recomputes - stats.FillPasses),
		"netsim/fill/domains_filled":    float64(stats.DomainsFilled),
		"netsim/fill/components_filled": float64(stats.ComponentsFilled),
		"netsim/fill/flows_filled":      float64(stats.FlowsFilled),
	} {
		sr := reg.Lookup(name)
		if sr == nil {
			t.Fatalf("%s not exported", name)
		}
		if sr.Value() != want {
			t.Errorf("%s = %g, want %g", name, sr.Value(), want)
		}
	}
	if reg.Lookup("netsim/fill/recomputes").Value() <= 0 {
		t.Error("no recomputes recorded for a completed flow")
	}

	// A second run end with no new work adds nothing; more work adds
	// only the delta.
	net.EndRun()
	before := reg.Lookup("netsim/fill/recomputes").Value()
	if before != float64(stats.Recomputes) {
		t.Fatalf("repeated EndRun changed recomputes to %g", before)
	}
	net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: 0})
	s.Run()
	net.EndRun()
	after := net.FillStats()
	if got := reg.Lookup("netsim/fill/recomputes").Value(); got != float64(after.Recomputes) {
		t.Errorf("incremental export: series %g, want cumulative %d", got, after.Recomputes)
	}
}
