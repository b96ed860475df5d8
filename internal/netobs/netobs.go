// Package netobs holds the observers of a netsim network: the tracer
// output, the metrics (the net/* counters, per-link utilization
// histograms and the netsim/fill/* export), the link statistics behind
// the hotspot table, and the flight-recorder probes. Each is a
// netsim.Observer subscribed with an Attach function; the engine knows
// none of them. They only read engine state, so an observed run
// simulates exactly like an unobserved one.
//
// The per-link utilization vector arrives with each rate pass, computed
// once by the engine for every observer. The flight-recorder probes are
// the exception by design: they sample live state at interval
// boundaries from the scheduler's hook, not per pass.
//
// The observers' tests run with the engine's, in internal/netsim
// (package netsim_test).
package netobs

import (
	"fmt"
	"math"
	"sort"

	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/trace"
)

// find returns the first observer of type T subscribed to net, or T's
// zero value.
func find[T netsim.Observer](net *netsim.Network) T {
	for _, o := range net.Observers() {
		if t, ok := o.(T); ok {
			return t
		}
	}
	var zero T
	return zero
}

// tracer records a network's engine events into a trace.Tracer: flow
// lifecycle spans (latency → active → paused → done) and instants on
// the "flow" async category, per-link utilization and active-flow
// counters, per-flow rate changes, and link fault instants, under the
// bare category and track names of the trace package's conventions.
type tracer struct {
	tr  trace.Tracer
	net *netsim.Network
	// rates holds the last rate emitted per live flow ID; a flow's
	// entry goes when the flow ends.
	rates map[uint64]float64
}

// AttachTracer subscribes an observer that records net's engine events
// into tr.
func AttachTracer(net *netsim.Network, tr trace.Tracer) {
	t := &tracer{tr: tr, net: net, rates: make(map[uint64]float64)}
	net.AddObserver(t, netsim.EvFlowStage, netsim.EvFlowDone, netsim.EvFlowCancel, netsim.EvFlowAbort,
		netsim.EvLinkFail, netsim.EvLinkDegrade, netsim.EvLinkRestore, netsim.EvPass)
}

// Tracer returns the trace.Tracer of the tracer observer subscribed to
// net, or nil when there is none; the training engine records its
// collective-op spans there.
func Tracer(net *netsim.Network) trace.Tracer {
	if t := find[*tracer](net); t != nil {
		return t.tr
	}
	return nil
}

// Observe implements netsim.Observer.
func (t *tracer) Observe(ev netsim.Event) {
	f := ev.Flow
	switch ev.Kind {
	case netsim.EvFlowStage:
		t.tr.AsyncSpan("flow", ev.Stage, f.ID(), ev.Start, ev.Now, trace.String("label", f.Label()))
	case netsim.EvFlowDone:
		t.tr.AsyncInstant("flow", "done", f.ID(), ev.Now,
			trace.String("label", f.Label()), trace.Float("bytes", f.Bytes()))
		delete(t.rates, f.ID())
	case netsim.EvFlowCancel, netsim.EvFlowAbort:
		name := "canceled"
		if ev.Kind == netsim.EvFlowAbort {
			name = "failed"
		}
		t.tr.AsyncInstant("flow", name, f.ID(), ev.Now,
			trace.String("label", f.Label()), trace.Float("remaining", f.Remaining()))
		delete(t.rates, f.ID())
	case netsim.EvLinkFail:
		t.tr.Instant("link", "fail "+ev.Link.Name, ev.Now)
	case netsim.EvLinkDegrade:
		t.tr.Instant("link", fmt.Sprintf("degrade %s ×%g", ev.Link.Name, ev.Factor), ev.Now)
	case netsim.EvLinkRestore:
		t.tr.Instant("link", "restore "+ev.Link.Name, ev.Now)
	case netsim.EvPass:
		for id, u := range ev.Util {
			if u != ev.Prev[id] {
				t.tr.Counter("link/"+t.net.Link(netsim.LinkID(id)).Name, "util", ev.Now, u)
			}
		}
		t.tr.Counter("net", "active_flows", ev.Now, float64(t.net.ActiveFlows()))
		for _, f := range ev.Active {
			if f == nil {
				continue
			}
			if r := f.Rate(); r != t.rates[f.ID()] && !math.IsInf(r, 1) {
				t.tr.AsyncInstant("flow", "rate", f.ID(), ev.Now,
					trace.String("label", f.Label()), trace.Float("bps", r))
				t.rates[f.ID()] = r
			}
		}
	}
}

// metricsObserver feeds a network's engine events into a metrics
// registry: the
// net/* flow and byte counters, a time-weighted utilization histogram
// per finite-bandwidth link (utilization is piecewise-constant between
// rate passes, so each pass charges the interval since the previous one
// exactly), and, at the end of the run, the rate engine's fill counters
// as netsim/fill/* series.
type metricsObserver struct {
	reg *metrics.Registry
	net *netsim.Network

	started, completed, delivered, aborted *metrics.Series

	// hists holds each link's utilization histogram (nil for
	// contention-free links), registered in link-ID order at the first
	// interval charged. last marks the start of the interval not yet
	// charged; exported is the FillStats already flushed, so repeated
	// run ends export monotone deltas.
	hists    []*metrics.Series
	last     float64
	exported netsim.FillStats
}

// AttachMetrics subscribes an observer that feeds net's engine events
// into reg, registering its flow counters at once.
func AttachMetrics(net *netsim.Network, reg *metrics.Registry) {
	m := &metricsObserver{
		reg:       reg,
		net:       net,
		started:   reg.Counter("net/flows_started", ""),
		completed: reg.Counter("net/flows_completed", ""),
		delivered: reg.Counter("net/bytes_delivered", "B"),
		last:      net.Scheduler().Now(),
	}
	// A link failure aborts its flows and none survives on a fresh
	// route, so net/flows_rerouted stays zero; it keeps its place in
	// the fred-metrics/v1 series list all the same.
	reg.Counter("net/flows_rerouted", "")
	m.aborted = reg.Counter("net/flows_aborted", "")
	net.AddObserver(m, netsim.EvFlowStart, netsim.EvFlowDone, netsim.EvFlowAbort,
		netsim.EvPass, netsim.EvRunEnd)
}

// Registry returns the registry of the metrics observer subscribed to
// net, or nil when there is none.
func Registry(net *netsim.Network) *metrics.Registry {
	if m := find[*metricsObserver](net); m != nil {
		return m.reg
	}
	return nil
}

// Observe implements netsim.Observer.
func (m *metricsObserver) Observe(ev netsim.Event) {
	switch ev.Kind {
	case netsim.EvFlowStart:
		m.started.Add(1)
	case netsim.EvFlowDone:
		m.completed.Add(1)
		m.delivered.Add(ev.Flow.Bytes())
	case netsim.EvFlowAbort:
		m.aborted.Add(1)
	case netsim.EvPass:
		// Prev held from the previous pass until now.
		m.charge(ev.Now, ev.Prev)
	case netsim.EvRunEnd:
		m.charge(ev.Now, ev.Util)
		m.flushFill()
	}
}

// charge adds the utilization vector util, which held over [last, now),
// to the link histograms.
func (m *metricsObserver) charge(now float64, util []float64) {
	if dt := now - m.last; dt > 0 {
		for id := len(m.hists); id < len(util); id++ {
			var h *metrics.Series
			if l := m.net.Link(netsim.LinkID(id)); !math.IsInf(l.Bandwidth, 1) {
				h = m.reg.Histogram("link/"+l.Name+"/util", "", metrics.UtilBuckets())
			}
			m.hists = append(m.hists, h)
		}
		for id, h := range m.hists {
			if h != nil {
				h.Observe(util[id], dt)
			}
		}
	}
	m.last = now
}

// flushFill exports the sharded rate engine's deterministic work
// counters as netsim/fill/* series, so they appear in fred-metrics
// artifacts and fredreport diffs, not just the scaleout CSV. Only the
// delta since the previous flush is added.
func (m *metricsObserver) flushFill() {
	cur, prev := m.net.FillStats(), m.exported
	add := func(name string, cur, prev uint64) {
		m.reg.Counter("netsim/fill/"+name, "").Add(float64(cur - prev))
	}
	add("recomputes", cur.Recomputes, prev.Recomputes)
	add("fill_passes", cur.FillPasses, prev.FillPasses)
	add("lazy_skips", cur.Recomputes-cur.FillPasses, prev.Recomputes-prev.FillPasses)
	add("domains_filled", cur.DomainsFilled, prev.DomainsFilled)
	add("components_filled", cur.ComponentsFilled, prev.ComponentsFilled)
	add("flows_filled", cur.FlowsFilled, prev.FlowsFilled)
	m.exported = cur
}

// linkStats tracks each link's peak instantaneous utilization for the
// hotspot table.
type linkStats struct {
	peak []float64
}

// AttachLinkStats subscribes an observer that tracks each of net's
// links' peak utilization for TopLinks and HotspotTable.
func AttachLinkStats(net *netsim.Network) { net.AddObserver(&linkStats{}, netsim.EvPass) }

// Observe implements netsim.Observer.
func (s *linkStats) Observe(ev netsim.Event) {
	if ev.Kind != netsim.EvPass {
		return
	}
	for len(s.peak) < len(ev.Util) {
		s.peak = append(s.peak, 0)
	}
	for id, u := range ev.Util {
		if u > s.peak[id] {
			s.peak[id] = u
		}
	}
}

// LinkUsage summarizes one link's traffic over a run: cumulative
// bytes, time-weighted mean utilization over the simulated horizon,
// and (with AttachLinkStats) peak instantaneous utilization. With
// AttachMetrics it additionally carries the time-weighted
// utilization distribution — the p50/p95 that separate a link that is
// briefly saturated from one that is persistently hot. It is the row
// type of the top-K hotspot report that names the congested links — on
// a mesh the corner-NPU edges and I/O feeds, on FRED the L1→L2 leaf
// uplinks.
type LinkUsage struct {
	ID       netsim.LinkID
	Name     string
	Bytes    float64
	MeanUtil float64 // Bytes / (Bandwidth × horizon); 0 for infinite-BW links
	PeakUtil float64 // max sum-of-rates / Bandwidth; needs AttachLinkStats

	// Time-weighted utilization distribution, populated only with
	// AttachMetrics (HasDist reports availability).
	HasDist bool
	P50Util float64
	P95Util float64
}

// TopLinks returns net's k most-utilized links, ordered by mean
// utilization, then peak, then bytes (descending; ties by ID so the
// report is deterministic). k ≤ 0 returns every link. The horizon for
// mean utilization is the current simulated time. Call
// netsim.Network.EndRun first so the distributions cover the whole
// run.
func TopLinks(net *netsim.Network, k int) []LinkUsage {
	stats, m := find[*linkStats](net), find[*metricsObserver](net)
	horizon := net.Scheduler().Now()
	out := make([]LinkUsage, 0, net.NumLinks())
	for id := 0; id < net.NumLinks(); id++ {
		l := net.Link(netsim.LinkID(id))
		u := LinkUsage{ID: l.ID, Name: l.Name, Bytes: l.BytesCarried()}
		if stats != nil && id < len(stats.peak) {
			u.PeakUtil = stats.peak[id]
		}
		if horizon > 0 && !math.IsInf(l.Bandwidth, 1) {
			u.MeanUtil = u.Bytes / (l.Bandwidth * horizon)
		}
		if m != nil && id < len(m.hists) && m.hists[id] != nil {
			u.HasDist = true
			u.P50Util = m.hists[id].Quantile(0.50)
			u.P95Util = m.hists[id].Quantile(0.95)
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.MeanUtil != b.MeanUtil {
			return a.MeanUtil > b.MeanUtil
		}
		if a.PeakUtil != b.PeakUtil {
			return a.PeakUtil > b.PeakUtil
		}
		if a.Bytes != b.Bytes {
			return a.Bytes > b.Bytes
		}
		return a.ID < b.ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// HotspotTable renders net's top-K link report as a report.Table (so
// cmd/fredsim's -csv flag applies to it like any other table).
func HotspotTable(net *netsim.Network, title string, k int) *report.Table {
	tbl := &report.Table{
		Title:  title,
		Header: []string{"link", "bytes", "mean util", "peak util"},
	}
	for _, u := range TopLinks(net, k) {
		tbl.AddRow(u.Name, report.FormatBytes(u.Bytes),
			report.FormatFraction(u.MeanUtil), report.FormatFraction(u.PeakUtil))
	}
	if net.Scheduler().Now() <= 0 {
		tbl.AddNote("zero simulated horizon — mean utilization is undefined and shown as 0")
	}
	if find[*linkStats](net) == nil {
		tbl.AddNote("peak utilization requires AttachLinkStats")
	}
	return tbl
}

// utilTopK is the number of hottest links folded into the flight
// recorder's net/util/topk_mean probe.
const utilTopK = 8

// timeseriesObserver counts completed flows and delivered bytes for the
// flight recorder's probes and records its closing sample at the end
// of the run. topKMean carries the net/util/topk_mean value computed
// with net/util/max, which the recorder always evaluates just before
// it (probes run in registration order).
type timeseriesObserver struct {
	rec       *timeseries.Recorder
	completed uint64
	delivered float64
	topKMean  float64
}

// AttachTimeseries hooks rec onto net's scheduler with its load probes
// (timeseries.AttachScheduler), then registers net's: active flows,
// completed flows, cumulative delivered bytes, rate-engine FillStats
// counters, and instantaneous link utilization (the maximum and the
// mean of the utilTopK hottest links) — plus, when a critpath recorder
// is attached, the cumulative blame decomposition (attach it first if
// blame series are wanted) — and subscribes rec's end-of-run sample.
// Probes are pure reads sampled from the scheduler's event hook, so
// recording cannot perturb simulated results.
func AttachTimeseries(net *netsim.Network, rec *timeseries.Recorder) {
	rec.AttachScheduler(net.Scheduler())
	o := &timeseriesObserver{rec: rec}
	net.AddObserver(o, netsim.EvFlowDone, netsim.EvRunEnd)
	rec.Probe("net/active_flows", "", func() float64 { return float64(net.ActiveFlows()) })
	rec.Probe("net/flows_completed", "", func() float64 { return float64(o.completed) })
	rec.Probe("net/bytes_delivered", "B", func() float64 { return o.delivered })
	rec.Probe("net/fill/recomputes", "", func() float64 { return float64(net.FillStats().Recomputes) })
	rec.Probe("net/fill/domains_filled", "", func() float64 { return float64(net.FillStats().DomainsFilled) })
	rec.Probe("net/fill/flows_filled", "", func() float64 { return float64(net.FillStats().FlowsFilled) })
	rec.Probe("net/util/max", "", func() float64 {
		mx, mean := utilTop(net)
		o.topKMean = mean
		return mx
	})
	rec.Probe("net/util/topk_mean", "", func() float64 { return o.topKMean })
	if crit := net.CritPath(); crit != nil {
		rec.Probe("crit/serial_s", "s", func() float64 { return crit.ClosedBlame().Serial })
		rec.Probe("crit/contention_s", "s", func() float64 { return crit.ClosedBlame().Contention })
		rec.Probe("crit/fault_s", "s", func() float64 { return crit.ClosedBlame().Fault })
	}
}

// Observe implements netsim.Observer.
func (o *timeseriesObserver) Observe(ev netsim.Event) {
	switch ev.Kind {
	case netsim.EvFlowDone:
		o.completed++
		o.delivered += ev.Flow.Bytes()
	case netsim.EvRunEnd:
		o.rec.Finish(ev.Now)
	}
}

// utilTop returns the maximum instantaneous link utilization and the
// mean of the utilTopK hottest links. A pure read — it runs inside the
// scheduler event hook.
func utilTop(net *netsim.Network) (max, topKMean float64) {
	var top [utilTopK]float64
	count := 0
	for id := 0; id < net.NumLinks(); id++ {
		u, ok := net.LinkUtil(netsim.LinkID(id))
		if !ok {
			continue
		}
		if u > max {
			max = u
		}
		// Insertion into the fixed top-K buffer (K is small).
		if count < utilTopK {
			top[count] = u
			count++
			continue
		}
		mi := 0
		for i := 1; i < utilTopK; i++ {
			if top[i] < top[mi] {
				mi = i
			}
		}
		if u > top[mi] {
			top[mi] = u
		}
	}
	if count == 0 {
		return max, 0
	}
	sum := 0.0
	for i := 0; i < count; i++ {
		sum += top[i]
	}
	return max, sum / float64(count)
}
