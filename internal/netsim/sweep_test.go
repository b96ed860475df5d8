package netsim_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/report"
)

// TestReferenceSweep runs the whole evaluation twice, every network on
// the sharded engine and then every network on the reference engine,
// with metrics and critical paths collected. What belongs to the model
// must match exactly: every table cell but the engine's own fill
// counters (the reference keeps none), every metrics series but
// netsim/fill/*, and every critical-path blame. The causal depth is
// left out: it counts scheduler events, and the engines schedule
// different ones. This is the oracle for the training engines' flow
// patterns, the multi-wafer rings and the fault sweep, which the
// seeded scenarios never produce.
func TestReferenceSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole evaluation twice")
	}
	type sweep struct {
		fills  []string // the blanked fill-counter cells
		tables []*report.Table
		series []*metrics.Series
		crit   []critpath.Iteration
	}
	run := func(reference bool) sweep {
		netsim.SetReferenceEverywhere(reference)
		defer netsim.SetReferenceEverywhere(false)
		s := experiments.NewSession()
		s.CollectMetrics(true)
		s.CollectCritPath(true)
		tables := s.All(false)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		var out sweep
		for _, tb := range tables {
			free, fills := engineFree(tb)
			out.tables = append(out.tables, free)
			out.fills = append(out.fills, fills...)
		}
		for _, se := range s.Metrics().Series() {
			if !strings.HasPrefix(se.Name(), "netsim/fill/") {
				out.series = append(out.series, se)
			}
		}
		for _, it := range s.CritPathCells() {
			it.MaxCausalDepth = 0
			out.crit = append(out.crit, it)
		}
		return out
	}
	fast, ref := run(false), run(true)
	if len(fast.fills) == 0 || slices.Equal(fast.fills, ref.fills) {
		t.Fatalf("fill counters %v, reference %v: the reference engine keeps none, so they must differ", fast.fills, ref.fills)
	}
	if len(fast.tables) != len(ref.tables) {
		t.Fatalf("%d tables, reference %d", len(fast.tables), len(ref.tables))
	}
	for i := range fast.tables {
		if got, want := fast.tables[i].CSV(), ref.tables[i].CSV(); got != want {
			t.Errorf("table %q differs from the reference engine's:\n%s\nreference:\n%s", fast.tables[i].Title, got, want)
		}
	}
	if len(fast.series) == 0 || len(fast.crit) == 0 {
		t.Fatalf("%d metrics series and %d critical paths collected", len(fast.series), len(fast.crit))
	}
	if len(fast.series) != len(ref.series) {
		t.Fatalf("%d metrics series, reference %d", len(fast.series), len(ref.series))
	}
	for i := range fast.series {
		if !reflect.DeepEqual(fast.series[i], ref.series[i]) {
			t.Errorf("series %s differs from the reference engine's", fast.series[i].Name())
		}
	}
	if !reflect.DeepEqual(fast.crit, ref.crit) {
		t.Errorf("critical-path blame differs from the reference engine's")
	}
}

// engineFree returns a copy of the table with the columns that count
// the sharded engine's fill work blanked, and the blanked cells.
func engineFree(tb *report.Table) (*report.Table, []string) {
	out := *tb
	var cols []int
	var fills []string
	for i, h := range tb.Header {
		if h == "domains filled" || h == "flows filled" {
			cols = append(cols, i)
		}
	}
	out.Rows = nil
	for _, row := range tb.Rows {
		row = slices.Clone(row)
		for _, c := range cols {
			fills = append(fills, row[c])
			row[c] = ""
		}
		out.Rows = append(out.Rows, row)
	}
	return &out, fills
}
