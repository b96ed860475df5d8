package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// recordFigure10 runs the full Figure 10 sweep on a session with a
// fresh tracer and link-stats collection attached, returning the
// exported trace bytes.
func recordFigure10(t *testing.T) []byte {
	t.Helper()
	s := NewSession()
	s.CollectTrace(true)
	s.CollectLinkStats(true)
	s.Figure10(false)
	var buf bytes.Buffer
	if err := s.Trace().WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

// The headline observability guarantee: tracing must not perturb the
// simulation and the simulation must not perturb the trace — two runs
// of the same experiment export byte-identical files.
func TestFigure10TraceDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Figure 10 sweep twice")
	}
	first := recordFigure10(t)
	second := recordFigure10(t)
	if !bytes.Equal(first, second) {
		n := len(first)
		if len(second) < n {
			n = len(second)
		}
		i := 0
		for i < n && first[i] == second[i] {
			i++
		}
		lo := i - 60
		if lo < 0 {
			lo = 0
		}
		hi := i + 60
		if hi > n {
			hi = n
		}
		t.Fatalf("traces diverge at byte %d (of %d vs %d):\n  first:  …%s…\n  second: …%s…",
			i, len(first), len(second), first[lo:hi], second[lo:hi])
	}

	if !json.Valid(first) {
		t.Fatal("exported trace is not valid JSON")
	}
	var tf struct {
		TraceEvents []struct {
			Cat string `json:"cat"`
			Ph  string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(first, &tf); err != nil {
		t.Fatalf("parsing trace: %v", err)
	}
	var flowSpans, commSpans, counters int
	for _, e := range tf.TraceEvents {
		switch {
		case e.Ph == "b" && strings.HasPrefix(e.Cat, "flow/"):
			flowSpans++
		case e.Ph == "b" && strings.HasPrefix(e.Cat, "comm/"):
			commSpans++
		case e.Ph == "C":
			counters++
		}
	}
	if flowSpans == 0 || commSpans == 0 || counters == 0 {
		t.Fatalf("trace content: %d flow spans, %d comm spans, %d counter samples — all must be nonzero",
			flowSpans, commSpans, counters)
	}
}

// Tracing and telemetry must be observability-only: the reported
// iteration times are unchanged from an untraced run.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	base, _ := NewSession().Figure2()

	s := NewSession()
	s.CollectTrace(true)
	s.CollectLinkStats(true)
	traced, _ := s.Figure2()

	if len(base) != len(traced) {
		t.Fatalf("row counts differ: %d vs %d", len(base), len(traced))
	}
	for i := range base {
		if base[i] != traced[i] {
			t.Fatalf("row %d differs with tracing on:\n  base:   %+v\n  traced: %+v",
				i, base[i], traced[i])
		}
	}
	if s.Trace().Spans() == 0 {
		t.Fatal("traced run recorded no spans")
	}
	if tables := s.LinkStatsTables(); len(tables) == 0 {
		t.Fatal("link-stats collection produced no hotspot tables")
	}
}
