package training

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/netobs"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/trace"
	"github.com/wafernet/fred/internal/workload"
)

// A traced iteration — one whose network has a tracer observer — must
// emit one "comm" async span per collective operation, tagged with the class, the strategy and the injected
// bytes — and the tracer must not change the simulated result.
func TestCommSpansTraced(t *testing.T) {
	m := workload.ResNet152()
	strat := parallelism.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP}

	base, err := Simulate(Config{
		Wafer: newMesh(), Model: m, Strategy: strat, MinibatchPerReplica: 16,
	})
	if err != nil {
		t.Fatal(err)
	}

	rec := trace.NewRecorder()
	w := newMesh()
	netobs.AttachTracer(w.Network(), rec)
	traced, err := Simulate(Config{
		Wafer: w, Model: m, Strategy: strat, MinibatchPerReplica: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Total != base.Total {
		t.Fatalf("tracing changed the result: %g vs %g", traced.Total, base.Total)
	}

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("parsing trace: %v", err)
	}

	wantOps := 0
	var wantBytes float64
	for _, st := range traced.Comm {
		wantOps += st.Ops
		wantBytes += st.Bytes
	}

	gotOps := 0
	var gotBytes float64
	for _, e := range tf.TraceEvents {
		if e.Ph != "b" || e.Cat != "comm" {
			continue
		}
		gotOps++
		if e.Args["strategy"] != strat.String() {
			t.Fatalf("comm span strategy = %v, want %v", e.Args["strategy"], strat)
		}
		class, _ := e.Args["class"].(string)
		if class == "" || !strings.HasPrefix(e.Name, class) {
			t.Fatalf("comm span name %q does not start with its class %q", e.Name, class)
		}
		b, ok := e.Args["bytes"].(float64)
		if !ok {
			t.Fatalf("comm span lacks bytes arg: %v", e.Args)
		}
		gotBytes += b
	}
	if gotOps != wantOps {
		t.Fatalf("comm spans = %d, CommStats reports %d ops", gotOps, wantOps)
	}
	if diff := gotBytes - wantBytes; diff > 1 || diff < -1 {
		t.Fatalf("comm span bytes sum = %g, CommStats reports %g", gotBytes, wantBytes)
	}
}
