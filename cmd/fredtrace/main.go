// Command fredtrace summarizes a Chrome trace-event JSON produced by
// fredsim or fredtrain with -trace, so traces are usable without a
// browser: it prints the longest collective-operation spans, the
// busiest links (time-weighted mean utilization integrated from the
// counter series), per-stage flow-lifecycle totals, and per-track
// counter summaries (sample count, min, mean, max of every counter
// series in the trace — link utilization, scheduler event counts, and
// any future counters alike).
//
// With -critpath, fredtrace instead summarizes a fred-critpath JSON
// artifact (fredsim/fredtrain -critpath): per-iteration blame buckets
// (compute / comm-serialized / comm-contention / fault-recovery /
// idle) and the top-k critical-path segments with their binding links.
//
// With -timeseries, fredtrace summarizes a fred-timeseries JSON
// artifact (fredsim/fredtrain -timeseries): per-series sample
// statistics and the hottest sampled intervals of each recorded
// simulation.
//
// Usage:
//
//	fredtrace [-k 10] [-top N] [-csv] trace.json
//	fredtrace [-k 10] [-csv] -critpath artifact.json
//	fredtrace [-k 10] [-csv] -timeseries artifact.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/timeseries"
)

// hasCat reports whether a trace category matches a base category,
// either exactly or with a per-network namespace suffix ("comm",
// "comm/Figure10:0:0:Baseline", ...).
func hasCat(cat, base string) bool {
	return cat == base || strings.HasPrefix(cat, base+"/")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver with the process boundary injected. Exit
// conventions (shared by every fred binary): 0 success, 1 a run that
// started but failed (unreadable or malformed input), 2 bad usage —
// unknown flag or wrong arguments, always with usage on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("fredtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintln(stderr, `usage: fredtrace [-k 10] [-top N] [-csv] trace.json
       fredtrace [-k 10] [-csv] -critpath artifact.json
       fredtrace [-k 10] [-csv] -timeseries artifact.json`)
		fs.PrintDefaults()
	}
	k := fs.Int("k", 10, "rows per table")
	top := fs.Int("top", 0, "bound the flow-stage and counter-track tables to the top N rows (0 = all)")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	critPathIn := fs.String("critpath", "", "summarize this fred-critpath JSON artifact instead of a trace")
	tsIn := fs.String("timeseries", "", "summarize this fred-timeseries JSON artifact instead of a trace")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	emit := func(tables []*report.Table) {
		for _, t := range tables {
			if *csv {
				fmt.Fprint(stdout, t.CSV())
				fmt.Fprintln(stdout)
			} else {
				fmt.Fprintln(stdout, t)
			}
		}
	}

	if *critPathIn != "" && *tsIn != "" {
		fmt.Fprintln(stderr, "fredtrace: -critpath and -timeseries are mutually exclusive")
		fs.Usage()
		return 2
	}
	if *critPathIn != "" || *tsIn != "" {
		if fs.NArg() != 0 {
			fmt.Fprintf(stderr, "fredtrace: unexpected argument %q\n", fs.Arg(0))
			fs.Usage()
			return 2
		}
		if *critPathIn != "" {
			art, err := critpath.ReadFile(*critPathIn)
			if err != nil {
				fmt.Fprintln(stderr, "fredtrace:", err)
				return 1
			}
			emit(critPathTables(art, *k))
			return 0
		}
		art, err := timeseries.ReadFile(*tsIn)
		if err != nil {
			fmt.Fprintln(stderr, "fredtrace:", err)
			return 1
		}
		emit(timeseriesTables(art, *k))
		return 0
	}

	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "fredtrace:", err)
		return 1
	}
	tables, err := summarize(data, *k, *top)
	if err != nil {
		fmt.Fprintln(stderr, "fredtrace:", err)
		return 1
	}
	emit(tables)
	return 0
}

// traceEvent is the subset of the Chrome trace-event fields the
// summarizer needs.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur"`
	ID   string         `json:"id"`
	Args map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
}

// span is one matched async begin/end pair (or complete event).
type span struct {
	cat, name string
	ts, dur   float64 // microseconds
	args      map[string]any
}

// summarize parses a trace and builds the summary tables: top-k
// collective spans, top-k busiest links, flow-stage totals, and
// counter-track summaries. top, when positive, bounds the flow-stage
// and counter-track tables to their first top rows (the ordering is
// unchanged; a note records what was elided).
func summarize(data []byte, k, top int) ([]*report.Table, error) {
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return nil, fmt.Errorf("parsing trace: %w", err)
	}

	var spans []span
	open := make(map[string][]traceEvent) // (cat,id,name) -> begin stack
	var maxTs float64
	type sample struct{ ts, v float64 }
	linkSamples := make(map[string][]sample)
	linkOrder := []string{}

	// Counter-track aggregation over every "C" event: one row per
	// (track, series) pair, whatever the series is named.
	type counterAgg struct {
		track, series string
		count         int
		min, max, sum float64
	}
	counters := make(map[string]*counterAgg)

	for _, e := range tf.TraceEvents {
		if e.Ts > maxTs {
			maxTs = e.Ts
		}
		switch e.Ph {
		case "X":
			spans = append(spans, span{cat: e.Cat, name: e.Name, ts: e.Ts, dur: e.Dur, args: e.Args})
			if end := e.Ts + e.Dur; end > maxTs {
				maxTs = end
			}
		case "b":
			key := e.Cat + "\x00" + e.ID + "\x00" + e.Name
			open[key] = append(open[key], e)
		case "e":
			key := e.Cat + "\x00" + e.ID + "\x00" + e.Name
			stack := open[key]
			if len(stack) == 0 {
				continue // unmatched end; tolerate truncated traces
			}
			b := stack[len(stack)-1]
			open[key] = stack[:len(stack)-1]
			spans = append(spans, span{cat: b.Cat, name: b.Name, ts: b.Ts, dur: e.Ts - b.Ts, args: b.Args})
		case "C":
			if u, ok := e.Args["util"].(float64); ok {
				if _, seen := linkSamples[e.Name]; !seen {
					linkOrder = append(linkOrder, e.Name)
				}
				linkSamples[e.Name] = append(linkSamples[e.Name], sample{e.Ts, u})
			}
			for series, raw := range e.Args {
				v, ok := raw.(float64)
				if !ok {
					continue
				}
				key := e.Name + "\x00" + series
				agg := counters[key]
				if agg == nil {
					agg = &counterAgg{track: e.Name, series: series, min: v, max: v}
					counters[key] = agg
				}
				agg.count++
				agg.sum += v
				if v < agg.min {
					agg.min = v
				}
				if v > agg.max {
					agg.max = v
				}
			}
		}
	}

	// Top collective spans.
	var comm []span
	for _, s := range spans {
		if hasCat(s.cat, "comm") {
			comm = append(comm, s)
		}
	}
	sort.SliceStable(comm, func(i, j int) bool {
		if comm[i].dur != comm[j].dur {
			return comm[i].dur > comm[j].dur
		}
		return comm[i].ts < comm[j].ts
	})
	commTbl := &report.Table{
		Title:  "Top collective spans",
		Header: []string{"op", "start", "duration", "injected"},
	}
	for i, s := range comm {
		if i >= k {
			break
		}
		bytes := "-"
		if b, ok := s.args["bytes"].(float64); ok {
			bytes = report.FormatBytes(b)
		}
		commTbl.AddRow(s.name, report.FormatSeconds(s.ts/1e6), report.FormatSeconds(s.dur/1e6), bytes)
	}
	commTbl.AddNote("%d collective spans in trace", len(comm))

	// Busiest links: integrate each utilization counter series over
	// [first sample, end of trace] — the series starts when the link
	// first carries traffic, with util 0 implied before that.
	type linkRow struct {
		name       string
		mean, peak float64
	}
	var links []linkRow
	for _, name := range linkOrder {
		ss := linkSamples[name]
		var integral, peak float64
		for i, s := range ss {
			end := maxTs
			if i+1 < len(ss) {
				end = ss[i+1].ts
			}
			integral += s.v * (end - s.ts)
			if s.v > peak {
				peak = s.v
			}
		}
		mean := 0.0
		if maxTs > 0 {
			mean = integral / maxTs
		}
		links = append(links, linkRow{name: name, mean: mean, peak: peak})
	}
	sort.SliceStable(links, func(i, j int) bool {
		if links[i].mean != links[j].mean {
			return links[i].mean > links[j].mean
		}
		return links[i].name < links[j].name
	})
	linkTbl := &report.Table{
		Title:  "Busiest links (time-weighted mean utilization)",
		Header: []string{"link", "mean util", "peak util"},
	}
	for i, l := range links {
		if i >= k {
			break
		}
		linkTbl.AddRow(l.name, report.FormatFraction(l.mean), report.FormatFraction(l.peak))
	}
	linkTbl.AddNote("%d links with utilization samples", len(links))

	// Flow lifecycle stage totals.
	type stageAgg struct {
		count   int
		total   float64
		longest float64
	}
	stages := make(map[string]*stageAgg)
	var stageOrder []string
	for _, s := range spans {
		if !hasCat(s.cat, "flow") {
			continue
		}
		agg := stages[s.name]
		if agg == nil {
			agg = &stageAgg{}
			stages[s.name] = agg
			stageOrder = append(stageOrder, s.name)
		}
		agg.count++
		agg.total += s.dur
		if s.dur > agg.longest {
			agg.longest = s.dur
		}
	}
	sort.Strings(stageOrder)
	flowTbl := &report.Table{
		Title:  "Flow lifecycle stages",
		Header: []string{"stage", "spans", "total time", "longest"},
	}
	flowShown := len(stageOrder)
	if top > 0 && top < flowShown {
		flowShown = top
	}
	for _, name := range stageOrder[:flowShown] {
		agg := stages[name]
		flowTbl.AddRow(name, agg.count, report.FormatSeconds(agg.total/1e6), report.FormatSeconds(agg.longest/1e6))
	}
	if flowShown < len(stageOrder) {
		flowTbl.AddNote("showing %d of %d stages (-top)", flowShown, len(stageOrder))
	}

	// Counter-track summaries, sorted by (track, series) so the table
	// is deterministic regardless of args-map iteration order.
	var aggs []*counterAgg
	for _, agg := range counters {
		aggs = append(aggs, agg)
	}
	sort.Slice(aggs, func(i, j int) bool {
		if aggs[i].track != aggs[j].track {
			return aggs[i].track < aggs[j].track
		}
		return aggs[i].series < aggs[j].series
	})
	ctrTbl := &report.Table{
		Title:  "Counter tracks",
		Header: []string{"track", "series", "samples", "min", "mean", "max"},
	}
	ctrShown := len(aggs)
	if top > 0 && top < ctrShown {
		ctrShown = top
	}
	for _, agg := range aggs[:ctrShown] {
		ctrTbl.AddRow(agg.track, agg.series, agg.count,
			fmt.Sprintf("%.4g", agg.min),
			fmt.Sprintf("%.4g", agg.sum/float64(agg.count)),
			fmt.Sprintf("%.4g", agg.max))
	}
	if ctrShown < len(aggs) {
		ctrTbl.AddNote("showing %d of %d counter series (-top)", ctrShown, len(aggs))
	}
	ctrTbl.AddNote("sample statistics (not time-weighted); %d counter series", len(aggs))

	return []*report.Table{commTbl, linkTbl, flowTbl, ctrTbl}, nil
}

// critPathTables builds the blame-report tables of a fred-critpath
// artifact: one bucket-decomposition row per iteration, then each
// iteration's top-k critical-path segments with their binding links.
func critPathTables(art *critpath.Artifact, k int) []*report.Table {
	sumTbl := &report.Table{
		Title:  "Critical-path blame decomposition",
		Header: []string{"iteration", "total", "compute", "comm-ser", "comm-cont", "fault", "idle", "path-len", "dag"},
	}
	for i, it := range art.Cells {
		sumTbl.AddRow(cellLabel(i, it.Label),
			report.FormatSeconds(it.Total), report.FormatSeconds(it.Compute),
			report.FormatSeconds(it.CommSerial), report.FormatSeconds(it.CommContention),
			report.FormatSeconds(it.FaultRecovery), report.FormatSeconds(it.Idle),
			report.FormatSeconds(it.PathLen),
			fmt.Sprintf("%dn/%de", it.DagNodes, it.DagEdges))
	}
	sumTbl.AddNote("buckets sum to total; %d iterations in %s", len(art.Cells), art.Schema)
	tables := []*report.Table{sumTbl}

	for i, it := range art.Cells {
		segTbl := &report.Table{
			Title:  "Top critical-path segments: " + cellLabel(i, it.Label),
			Header: []string{"segment", "class", "start", "duration", "comm-ser", "comm-cont", "fault", "binding link"},
		}
		n := len(it.Segments)
		if k > 0 && k < n {
			n = k
		}
		for _, s := range it.Segments[:n] {
			bind := s.BindLink
			if bind == "" {
				bind = "-"
			}
			segTbl.AddRow(s.Label, orDash(s.Class), report.FormatSeconds(s.Start),
				report.FormatSeconds(s.Duration()),
				report.FormatSeconds(s.Blame.Serial), report.FormatSeconds(s.Blame.Contention),
				report.FormatSeconds(s.Blame.Fault), bind)
		}
		elided := len(it.Segments) - n + it.Dropped
		if elided > 0 {
			segTbl.AddNote("showing %d of %d segments", n, len(it.Segments)+it.Dropped)
		}
		tables = append(tables, segTbl)
	}
	return tables
}

// cellLabel names an artifact cell, falling back to its index for
// unlabeled single-run artifacts.
func cellLabel(i int, label string) string {
	if label != "" {
		return label
	}
	return fmt.Sprintf("#%d", i)
}

// orDash substitutes "-" for an empty table cell.
func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
