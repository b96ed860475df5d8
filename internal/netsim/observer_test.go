package netsim

import (
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

// eventLog is a test observer: it counts every event kind, keeps each
// link's peak utilization from the pass vectors, and (given a t)
// checks that each pass's Prev is the previous pass's Util.
type eventLog struct {
	t      *testing.T
	counts [EvRunEnd + 1]int
	peak   []float64
	last   []float64
}

// allKinds lists every event kind.
var allKinds = []EventKind{EvFlowStart, EvFlowStage, EvFlowDone, EvFlowCancel, EvFlowAbort,
	EvPass, EvLinkFail, EvLinkDegrade, EvLinkRestore, EvRunEnd}

func attachLog(t *testing.T, net *Network) *eventLog {
	l := &eventLog{t: t}
	net.AddObserver(l, allKinds...)
	return l
}

func (l *eventLog) Observe(ev Event) {
	l.counts[ev.Kind]++
	if ev.Kind != EvPass {
		return
	}
	for id, u := range ev.Util {
		prev := 0.0
		if id < len(l.last) {
			prev = l.last[id]
		}
		if ev.Prev[id] != prev && l.t != nil {
			l.t.Errorf("pass at %g: link %d Prev = %g, want the last pass's %g", ev.Now, id, ev.Prev[id], prev)
		}
		if id >= len(l.peak) {
			l.peak = append(l.peak, 0)
		}
		if u > l.peak[id] {
			l.peak[id] = u
		}
	}
	l.last = append(l.last[:0], ev.Util...)
}

// TestObserverEvents: one subscriber sees every lifecycle event once,
// and each pass hands it the utilization vector of the fresh rates.
func TestObserverEvents(t *testing.T) {
	s := sim.NewScheduler()
	net, links := line(s, 3, 100)
	log := attachLog(t, net)
	var util []float64
	net.AddObserver(observerFunc(func(ev Event) { util = append(util[:0], ev.Util...) }), EvPass)
	a := net.StartFlow(FlowSpec{Links: links, Bytes: 100, Latency: 0})
	net.StartFlow(FlowSpec{Links: links[:1], Bytes: 100, Latency: 0})
	s.At(0.5, func() {
		if util[links[0]] != 1 || util[links[1]] != 0.5 {
			t.Errorf("pass utilization = %v, want [1 0.5]", util)
		}
		a.Cancel()
	})
	s.Run()
	net.EndRun()
	for kind, want := range map[EventKind]int{EvFlowStart: 2, EvFlowDone: 1, EvFlowCancel: 1, EvRunEnd: 1} {
		if got := log.counts[kind]; got != want {
			t.Errorf("event %d seen %d times, want %d", kind, got, want)
		}
	}
	if log.counts[EvPass] == 0 || log.peak[links[0]] != 1 {
		t.Errorf("passes %d, peak %v", log.counts[EvPass], log.peak)
	}
}

type observerFunc func(Event)

func (f observerFunc) Observe(ev Event) { f(ev) }
