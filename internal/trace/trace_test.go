package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

// event mirrors the fields of the exported JSON the tests inspect.
type event struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

func export(t *testing.T, r *Recorder) []event {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteJSON produced invalid JSON:\n%s", buf.String())
	}
	var tf struct {
		TraceEvents []event `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("parsing exported trace: %v", err)
	}
	return tf.TraceEvents
}

// find returns the events with the given ph, skipping metadata.
func find(events []event, ph string) []event {
	var out []event
	for _, e := range events {
		if e.Ph == ph {
			out = append(out, e)
		}
	}
	return out
}

func TestRecorderExportsAllEventKinds(t *testing.T) {
	r := NewRecorder()
	r.SetProcessName("test-proc")
	r.Span("train", "iteration", 1, 3, String("model", "m"))
	r.AsyncSpan("flow", "active", 7, 0.5, 2.5, Float("bps", 1e9))
	r.AsyncInstant("flow", "done", 7, 2.5, Int("n", 4))
	r.Instant("train", "tick", 2)
	r.Counter("link/a", "util", 1, 0.25)

	if r.Len() != 5 {
		t.Fatalf("Len() = %d, want 5", r.Len())
	}
	if r.Spans() != 2 {
		t.Fatalf("Spans() = %d, want 2", r.Spans())
	}

	events := export(t, r)

	meta := find(events, "M")
	var names []string
	for _, m := range meta {
		if n, ok := m.Args["name"].(string); ok {
			names = append(names, n)
		}
	}
	if len(names) < 2 || names[0] != "test-proc" || names[1] != "train" {
		t.Fatalf("metadata names = %v, want process then first-use tracks", names)
	}

	x := find(events, "X")
	if len(x) != 1 || x[0].Name != "iteration" || x[0].Ts != 1e6 || x[0].Dur != 2e6 {
		t.Fatalf("complete events = %+v, want one iteration span at 1s for 2s (µs)", x)
	}
	if x[0].Args["model"] != "m" {
		t.Fatalf("span args = %v", x[0].Args)
	}

	b, e := find(events, "b"), find(events, "e")
	if len(b) != 1 || len(e) != 1 {
		t.Fatalf("async pair: %d begins, %d ends, want 1 and 1", len(b), len(e))
	}
	if b[0].Cat != "flow" || b[0].ID != "7" || b[0].Ts != 0.5e6 || e[0].Ts != 2.5e6 {
		t.Fatalf("async pair = %+v / %+v", b[0], e[0])
	}

	if n := find(events, "n"); len(n) != 1 || n[0].Name != "done" || n[0].Args["n"] != float64(4) {
		t.Fatalf("async instants = %+v", n)
	}
	if i := find(events, "i"); len(i) != 1 || i[0].Tid != find(events, "X")[0].Tid {
		t.Fatalf("instant should share the span's track: %+v", i)
	}
	c := find(events, "C")
	if len(c) != 1 || c[0].Name != "link/a" || c[0].Args["util"] != 0.25 {
		t.Fatalf("counters = %+v", c)
	}
}

func TestRecorderDeterministic(t *testing.T) {
	record := func() []byte {
		r := NewRecorder()
		for i := 0; i < 100; i++ {
			tm := sim.Time(i) * 0.001
			r.AsyncSpan("flow", "active", uint64(i), tm, tm+0.5, Float("bps", 1e9/float64(i+1)))
			r.Counter("link/x", "util", tm, float64(i)/100)
		}
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(record(), record()) {
		t.Fatal("two identical recordings exported different bytes")
	}
}

func TestRecorderClampsNonFiniteFloats(t *testing.T) {
	r := NewRecorder()
	r.Counter("c", "v", 0, math.Inf(1))
	r.Counter("c", "v", 1, math.Inf(-1))
	r.Counter("c", "v", 2, math.NaN())
	events := export(t, r) // export fails the test if the JSON is invalid
	c := find(events, "C")
	if len(c) != 3 {
		t.Fatalf("got %d counters, want 3", len(c))
	}
	if v := c[0].Args["v"].(float64); v != math.MaxFloat64 {
		t.Fatalf("+Inf clamped to %g, want MaxFloat64", v)
	}
	if v := c[1].Args["v"].(float64); v != -math.MaxFloat64 {
		t.Fatalf("-Inf clamped to %g, want -MaxFloat64", v)
	}
}

func TestRecorderArgValueKinds(t *testing.T) {
	r := NewRecorder()
	r.Instant("t", "x", 0,
		String("s", `quote " and \ slash`),
		Float("f", 0.5),
		Int("i", -3),
		Arg{Key: "u", Value: uint64(9)},
		Arg{Key: "b", Value: true},
		Arg{Key: "other", Value: []int{1, 2}})
	events := find(export(t, r), "i")
	if len(events) != 1 {
		t.Fatalf("got %d instants, want 1", len(events))
	}
	args := events[0].Args
	if args["s"] != `quote " and \ slash` || args["f"] != 0.5 ||
		args["i"] != float64(-3) || args["u"] != float64(9) || args["b"] != true {
		t.Fatalf("args round-trip = %v", args)
	}
	if s, ok := args["other"].(string); !ok || !strings.Contains(s, "1") {
		t.Fatalf("fallback arg rendering = %v", args["other"])
	}
}

func TestAttachSchedulerCounter(t *testing.T) {
	s := sim.NewScheduler()
	r := NewRecorder()
	AttachSchedulerCounter(s, r, "scheduler", 2)
	for i := 1; i <= 5; i++ {
		s.At(sim.Time(i), func() {})
	}
	s.Run()
	events := find(export(t, r), "C")
	if len(events) != 2 {
		t.Fatalf("got %d samples with every=2 over 5 events, want 2: %+v", len(events), events)
	}
	if events[0].Args["events"] != float64(2) || events[1].Args["events"] != float64(4) {
		t.Fatalf("cumulative counts = %+v", events)
	}
	// A nil tracer adds nothing and removes nothing: the counter above
	// keeps sampling (event 6 is the third multiple of 2).
	AttachSchedulerCounter(s, nil, "scheduler", 2)
	s.At(6, func() {})
	s.Run()
	if got := find(export(t, r), "C"); len(got) != 3 {
		t.Fatalf("samples after a nil attach = %d, want 3", len(got))
	}
}

// Move namespaces every category and track of the moved buffer after
// its first path element, maps its synchronous tracks onto the
// destination's ids, keeps emission order across the destination's
// own records, and leaves the buffer empty.
func TestMoveNamespaces(t *testing.T) {
	dst := NewRecorder()
	dst.Instant("train", "start", 0)
	src := NewRecorder()
	src.Instant("link", "fail l0", 1)
	src.AsyncSpan("flow", "active", 7, 1, 2)
	src.Counter("link/l0", "util", 2, 0.5)
	src.Counter("net", "active_flows", 2, 1)
	dst.Move(src, "Fig:3:0:Fred-D")
	dst.Instant("train", "end", 3)
	if src.Len() != 0 {
		t.Fatalf("moved buffer kept %d records", src.Len())
	}
	if dst.Len() != 6 || dst.Spans() != 1 {
		t.Fatalf("merged trace has %d records, %d spans; want 6, 1", dst.Len(), dst.Spans())
	}

	var got []string
	for _, e := range export(t, dst) {
		switch e.Ph {
		case "i":
			got = append(got, fmt.Sprintf("i %d %s", e.Tid, e.Name))
		case "b":
			got = append(got, "b "+e.Cat)
		case "C":
			got = append(got, "C "+e.Name)
		case "M":
			if e.Name == "thread_name" {
				got = append(got, fmt.Sprintf("tid %d %v", e.Tid, e.Args["name"]))
			}
		}
	}
	want := []string{
		"tid 1 train", "tid 2 link/Fig:3:0:Fred-D",
		"i 1 start", "i 2 fail l0", "b flow/Fig:3:0:Fred-D",
		"C link/Fig:3:0:Fred-D/l0", "C net/Fig:3:0:Fred-D", "i 1 end",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("merged events:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
