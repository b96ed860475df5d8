package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeClock advances one second per reading, so timestamps count clock
// reads — the determinism contract the engine is built around.
func fakeClock() func() time.Time {
	base := time.Unix(1000, 0)
	n := 0
	var mu sync.Mutex
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		n++
		return base.Add(time.Duration(n-1) * time.Second)
	}
}

func TestEngineSnapshotAndETA(t *testing.T) {
	e := NewEngine(fakeClock()) // read 1: start at +0s
	e.StudyStarted("fig2", 3)
	c0 := e.CellStarted("fig2", 0)
	c1 := e.CellStarted("fig2", 1)
	c1.SetSimTime(0.5)

	s := e.Snapshot() // read 2: +1s
	if s.CellsTotal != 3 || s.CellsDone != 0 || s.ElapsedS != 1 || s.ETAS != -1 {
		t.Fatalf("initial snapshot = %+v", s)
	}
	if len(s.Running) != 2 || s.Running[1].SimTimeS != 0.5 {
		t.Fatalf("running = %+v", s.Running)
	}

	e.CellFinished(c0, false) // read 3: +2s, 1/3 done → eta = 2/1 * 2 = 4
	s = e.Snapshot()          // read 4: +3s, eta = 3/1 * 2 = 6
	if s.CellsDone != 1 || s.ETAS != 6 {
		t.Fatalf("after one completion: %+v", s)
	}
	e.CellFinished(c1, true)
	s = e.Snapshot()
	if s.CellsDone != 2 || s.CellsFailed != 1 || len(s.Running) != 0 {
		t.Fatalf("after failure: %+v", s)
	}
	e.CellFinished(nil, false) // ignored
	if got := e.Snapshot().CellsDone; got != 2 {
		t.Fatalf("nil CellFinished counted: done = %d", got)
	}
}

// TestEngineOrderIndependent: the post-completion snapshot depends
// only on how many cells completed, not on which workers ran them or
// in what order they started — the property that makes the /progress
// golden identical at every -parallel width.
func TestEngineOrderIndependent(t *testing.T) {
	final := func(finishOrder []int) Snapshot {
		e := NewEngine(fakeClock())
		e.StudyStarted("golden", 4)
		cells := make([]*Cell, 4)
		for i := range cells {
			cells[i] = e.CellStarted("golden", i)
		}
		for _, i := range finishOrder {
			e.CellFinished(cells[i], false)
		}
		return e.Snapshot()
	}
	a := final([]int{0, 1, 2, 3})
	b := final([]int{3, 1, 0, 2})
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("snapshot depends on completion order:\n%s\n%s", aj, bj)
	}
}

func TestStatusLine(t *testing.T) {
	var buf bytes.Buffer
	l := NewStatusLine(&buf, "fredsim")
	e := NewEngine(fakeClock())
	e.OnUpdate(l.Update)
	e.StudyStarted("fig2", 2)
	c0 := e.CellStarted("fig2", 0)
	c1 := e.CellStarted("fig2", 1)
	e.CellFinished(c0, false) // read 2: elapsed 1s, eta 1s
	e.CellFinished(c1, false) // read 3: elapsed 2s, eta 0s
	l.Done()

	got := buf.String()
	want := "\rfredsim: fig2 1/2 cells · elapsed 1.0s · eta 1.0s" +
		"\rfredsim: fig2 2/2 cells · elapsed 2.0s · eta 0.0s\n"
	if got != want {
		t.Errorf("status line:\n got %q\nwant %q", got, want)
	}

	// Done without any update stays silent.
	var empty bytes.Buffer
	NewStatusLine(&empty, "x").Done()
	if empty.Len() != 0 {
		t.Errorf("empty status line wrote %q", empty.String())
	}
}

func TestStatusLinePadsShrinkingLine(t *testing.T) {
	var buf bytes.Buffer
	l := NewStatusLine(&buf, "t")
	l.Update(Snapshot{Study: "longer-study-name", CellsDone: 1, CellsTotal: 2, ETAS: -1})
	l.Update(Snapshot{Study: "s", CellsDone: 2, CellsTotal: 2, ETAS: -1})
	lines := strings.Split(buf.String(), "\r")
	if len(lines) != 3 {
		t.Fatalf("expected 2 renders, got %q", buf.String())
	}
	if len(lines[2]) < len(lines[1]) {
		t.Errorf("second render %q shorter than first %q — stale tail would remain", lines[2], lines[1])
	}
}

func TestHandlerProgressJSON(t *testing.T) {
	e := NewEngine(fakeClock())
	e.StudyStarted("fig2", 1)
	c := e.CellStarted("fig2", 0)
	e.CellFinished(c, false)
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q", ct)
	}
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Study != "fig2" || s.CellsDone != 1 || s.CellsTotal != 1 {
		t.Errorf("snapshot = %+v", s)
	}

	// The pprof index must be mounted too (the -debug-addr contract).
	resp2, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/ status = %d", resp2.StatusCode)
	}
	resp3, err := http.Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp3.Body)
	resp3.Body.Close()
	if !strings.Contains(string(body), "fred.progress") {
		t.Errorf("/debug/vars missing fred.progress: %s", body)
	}
}

func TestHandlerSSEStream(t *testing.T) {
	e := NewEngine(fakeClock())
	e.StudyStarted("fig2", 2)
	c0 := e.CellStarted("fig2", 0)
	srv := httptest.NewServer(Handler(e))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/progress/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type = %q", ct)
	}

	readEvent := func() Snapshot {
		// SSE events are "data: {...}\n\n"; read up to the blank line.
		var line string
		buf := make([]byte, 1)
		for !strings.HasSuffix(line, "\n\n") {
			if _, err := resp.Body.Read(buf); err != nil {
				t.Fatalf("stream read: %v (got %q)", err, line)
			}
			line += string(buf)
		}
		var s Snapshot
		if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(line), "data: ")), &s); err != nil {
			t.Fatalf("bad SSE payload %q: %v", line, err)
		}
		return s
	}

	if s := readEvent(); s.CellsDone != 0 {
		t.Errorf("initial event = %+v", s)
	}
	e.CellFinished(c0, false)
	if s := readEvent(); s.CellsDone != 1 {
		t.Errorf("completion event = %+v", s)
	}
}

func TestStartServer(t *testing.T) {
	e := NewEngine(fakeClock())
	var buf bytes.Buffer
	addr, err := StartServer("127.0.0.1:0", e, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), addr) {
		t.Errorf("listen message %q does not name %s", buf.String(), addr)
	}
	resp, err := http.Get(fmt.Sprintf("http://%s/progress", addr))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("status = %d", resp.StatusCode)
	}
	if _, err := StartServer("256.0.0.1:99999", e, nil); err == nil {
		t.Error("bad address accepted")
	}
}
