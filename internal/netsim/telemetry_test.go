package netsim_test

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/netobs"
	. "github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/trace"
)

func TestPeakUtilWithTelemetry(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	netobs.AttachLinkStats(net)
	net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: 0})
	net.StartFlow(FlowSpec{Links: links, Bytes: 50, Latency: 0})
	s.Run()
	top := netobs.TopLinks(net, 1)
	if got := top[0].PeakUtil; !approx(got, 1) {
		t.Fatalf("PeakUtil = %g, want 1 (two flows saturating the link)", got)
	}
	if len(top) != 1 || top[0].ID != links[0] {
		t.Fatalf("TopLinks(1) = %+v, want the shared link", top)
	}
	if !approx(top[0].Bytes, 150) {
		t.Fatalf("top link bytes = %g, want 150", top[0].Bytes)
	}
	// Completion at t=1.5, 150 bytes at 100 B/s: mean utilization 1.
	if !approx(top[0].MeanUtil, 1) {
		t.Fatalf("top link mean util = %g, want 1", top[0].MeanUtil)
	}
}

// The flow lifecycle must appear in a recorded trace as one async
// stage span per state transition plus a terminal instant, all under
// the "flow" category, namespaced once the network's buffer merges
// into a shared trace.
func TestFlowLifecycleSpansTraced(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	buf0 := trace.NewRecorder()
	netobs.AttachTracer(net, buf0)
	var f *Flow
	f = net.StartFlow(FlowSpec{Links: links, Bytes: 1000, Latency: 1, Label: "payload"})
	s.At(6, func() { f.Pause() })  // 5 bytes/s progress: active 1..6
	s.At(8, func() { f.Resume() }) // latency again 8..9, active 9..14
	s.Run()
	rec := trace.NewRecorder()
	rec.Move(buf0, "testnet")

	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("parsing trace: %v", err)
	}
	var stages []string
	for _, e := range tf.TraceEvents {
		if !strings.HasPrefix(e.Cat, "flow") {
			continue
		}
		if e.Cat != "flow/testnet" {
			t.Fatalf("flow category = %q, want namespaced flow/testnet", e.Cat)
		}
		if e.Ph == "b" || e.Ph == "n" {
			if e.Args["label"] != "payload" {
				t.Fatalf("flow event %q lacks label arg: %v", e.Name, e.Args)
			}
			if e.Name != "rate" {
				stages = append(stages, e.Name)
			}
		}
	}
	want := []string{"latency", "active", "paused", "latency", "active", "done"}
	if len(stages) != len(want) {
		t.Fatalf("lifecycle stages = %v, want %v", stages, want)
	}
	for i := range want {
		if stages[i] != want[i] {
			t.Fatalf("lifecycle stages = %v, want %v", stages, want)
		}
	}
}

func TestCanceledFlowTraced(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 2, 100)
	rec := trace.NewRecorder()
	netobs.AttachTracer(net, rec)
	f := net.StartFlow(FlowSpec{Links: links, Bytes: 1000, Latency: 0, Label: "x"})
	s.At(2, func() { f.Cancel() })
	s.Run()
	var buf bytes.Buffer
	if err := rec.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := buf.String()
	if !strings.Contains(out, `"canceled"`) {
		t.Fatal("trace lacks the canceled instant")
	}
	if strings.Contains(out, `"done"`) {
		t.Fatal("canceled flow must not also emit done")
	}
	if f.State() != FlowDone {
		t.Fatalf("state after cancel = %v", f.State())
	}
	// Canceling again is a no-op and must not duplicate events.
	n := rec.Len()
	f.Cancel()
	if rec.Len() != n {
		t.Fatal("double Cancel emitted extra trace events")
	}
}

// The helpers of the internal tests, for this package's tests.
var (
	line   = Line
	approx = Approx
)
