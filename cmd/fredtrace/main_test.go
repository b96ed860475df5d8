package main

import (
	"bytes"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/trace"
)

// record builds a small trace through the real Recorder so the
// summarizer is tested against the exact bytes fredsim/fredtrain emit.
func record(t *testing.T) []byte {
	t.Helper()
	r := trace.NewRecorder()
	// Two collective ops of different lengths, in a namespaced and a
	// bare category.
	r.AsyncSpan("comm/Figure10:0:0:Baseline", "DP ring-allreduce(3)", 1, 0, 0.010,
		trace.Float("bytes", 2e9))
	r.AsyncSpan("comm", "MP all-gather(4)", 2, 0.001, 0.004,
		trace.Float("bytes", 5e8))
	// Flow lifecycle: one flow with latency then active stages.
	r.AsyncSpan("flow/Figure10:0:0:Baseline", "latency", 7, 0, 0.001, trace.String("label", "x"))
	r.AsyncSpan("flow/Figure10:0:0:Baseline", "active", 7, 0.001, 0.009, trace.String("label", "x"))
	r.AsyncInstant("flow/Figure10:0:0:Baseline", "done", 7, 0.009, trace.String("label", "x"))
	// Link utilization: 100% for the first half of the trace, 0 after;
	// the busiest-link table integrates to a 50% mean.
	r.Counter("link/Figure10:0:0:Baseline/mesh 0->1", "util", 0, 1.0)
	r.Counter("link/Figure10:0:0:Baseline/mesh 0->1", "util", 0.005, 0)
	r.Counter("link/Figure10:0:0:Baseline/mesh 1->2", "util", 0, 0.25)
	// Final event pins the trace horizon at 10 ms.
	r.Instant("mark", "end", 0.010)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes()
}

func TestSummarize(t *testing.T) {
	tables, err := summarize(record(t), 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 4 {
		t.Fatalf("got %d tables, want comm/links/flows/counters", len(tables))
	}
	comm, links, flows := tables[0].String(), tables[1].String(), tables[2].String()
	ctrs := tables[3].String()

	// Longest op first, namespaced and bare categories both counted.
	iRing := strings.Index(comm, "DP ring-allreduce(3)")
	iGather := strings.Index(comm, "MP all-gather(4)")
	if iRing < 0 || iGather < 0 || iRing > iGather {
		t.Fatalf("comm table order wrong:\n%s", comm)
	}
	if !strings.Contains(comm, "2 GB") {
		t.Fatalf("comm table lacks injected bytes:\n%s", comm)
	}

	// 1.0 util for 5 of 10 ms integrates to a 50% mean; the 0.25 link
	// holds its last sample to the horizon.
	if !strings.Contains(links, "50.0%") || !strings.Contains(links, "100.0%") {
		t.Fatalf("links table lacks the integrated 50%% mean / 100%% peak:\n%s", links)
	}
	i05 := strings.Index(links, "mesh 0->1")
	i25 := strings.Index(links, "mesh 1->2")
	if i05 < 0 || i25 < 0 || i05 > i25 {
		t.Fatalf("links table order wrong:\n%s", links)
	}

	if !strings.Contains(flows, "latency") || !strings.Contains(flows, "active") {
		t.Fatalf("flow table lacks lifecycle stages:\n%s", flows)
	}

	// The counter-track table summarizes every counter series: the
	// 0->1 link has two util samples spanning [0, 1], mean 0.5; the
	// 1->2 link has a single 0.25 sample.
	var row01 string
	for _, line := range strings.Split(ctrs, "\n") {
		if strings.Contains(line, "mesh 0->1") {
			row01 = line
		}
	}
	if fields := strings.Fields(row01); len(fields) != 7 ||
		fields[2] != "util" || fields[3] != "2" || fields[4] != "0" ||
		fields[5] != "0.5" || fields[6] != "1" {
		t.Fatalf("counter table lacks aggregated 0->1 row:\n%s", ctrs)
	}
	if !strings.Contains(ctrs, "0.25") {
		t.Fatalf("counter table lacks the single-sample 1->2 row:\n%s", ctrs)
	}
	if !strings.Contains(ctrs, "2 counter series") {
		t.Fatalf("counter table note lacks series count:\n%s", ctrs)
	}
	// Rows come out sorted by (track, series).
	if i01, i12 := strings.Index(ctrs, "mesh 0->1"), strings.Index(ctrs, "mesh 1->2"); i01 > i12 {
		t.Fatalf("counter table not sorted by track:\n%s", ctrs)
	}
}

func TestSummarizeTopK(t *testing.T) {
	tables, err := summarize(record(t), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	comm := tables[0].String()
	if strings.Contains(comm, "MP all-gather(4)") {
		t.Fatalf("k=1 comm table shows more than one row:\n%s", comm)
	}
	if !strings.Contains(comm, "2 collective spans") {
		t.Fatalf("comm table note lost the total count:\n%s", comm)
	}
}

func TestSummarizeRejectsGarbage(t *testing.T) {
	if _, err := summarize([]byte("not json"), 5, 0); err == nil {
		t.Fatal("summarize accepted invalid JSON")
	}
}

func TestHasCat(t *testing.T) {
	cases := []struct {
		cat, base string
		want      bool
	}{
		{"comm", "comm", true},
		{"comm/Figure10:0:0:Baseline", "comm", true},
		{"commx", "comm", false},
		{"flow/x", "comm", false},
	}
	for _, c := range cases {
		if got := hasCat(c.cat, c.base); got != c.want {
			t.Errorf("hasCat(%q, %q) = %v, want %v", c.cat, c.base, got, c.want)
		}
	}
}
