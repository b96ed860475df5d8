package netsim

import (
	"testing"

	"github.com/wafernet/fred/internal/sim"
)

// FuzzWaterfill feeds random fault/churn programs to both rate engines
// and requires bit-identical behaviour. The fuzz input is interpreted
// as a byte-coded op sequence over a fixed 5-node, 10-link topology:
// each 3-byte chunk (op, a, b) first advances the injection clock, then
// starts a flow (plain or survivable), fails/degrades/restores a link,
// or pauses/resumes/cancels an earlier flow. The interpreter is total —
// every input decodes to a valid program — so the fuzzer explores the
// engine state space rather than a parser.
//
// Run the deterministic corpus with the ordinary test suite, or explore
// with: go test -fuzz=FuzzWaterfill ./internal/netsim
func FuzzWaterfill(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x00, 0x30, 0x02, 0x02, 0x00, 0x03})
	f.Add([]byte{
		0x01, 0x12, 0x24, 0x00, 0x45, 0x11, 0x02, 0x02, 0x04,
		0x03, 0x02, 0x35, 0x01, 0x07, 0x52, 0x04, 0x02, 0x01,
	})
	f.Add([]byte{
		0x00, 0xff, 0x07, 0x01, 0x3c, 0x1b, 0x05, 0x00, 0x02,
		0x06, 0x00, 0x04, 0x02, 0x05, 0x01, 0x02, 0x06, 0x03,
		0x07, 0x01, 0x00,
	})
	f.Add([]byte{
		0x01, 0x08, 0x10, 0x01, 0x19, 0x21, 0x01, 0x2a, 0x32,
		0x02, 0x00, 0x01, 0x02, 0x03, 0x02, 0x02, 0x06, 0x04,
		0x02, 0x09, 0x01, 0x03, 0x04, 0x55,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 || len(data) > 999 {
			t.Skip()
		}
		opt := runFuzzProgram(data, false)
		ref := runFuzzProgram(data, true)
		compareFaultRecords(t, "fuzz", opt, ref)
	})
}

// runFuzzProgram decodes and replays one fuzz program on a fresh
// network (the reference engine when reference is set) and records
// every observable.
func runFuzzProgram(data []byte, reference bool) faultRecord {
	s := sim.NewScheduler()
	net := New(s)
	if reference {
		net.useReferenceEngine()
	}
	const nNodes, nLinks = 5, 10
	nodes := make([]NodeID, nNodes)
	for i := range nodes {
		nodes[i] = net.AddNode("n")
	}
	links := make([]LinkID, nLinks)
	for i := range links {
		links[i] = net.AddLink(
			nodes[i%nNodes], nodes[(i+1+i/nNodes)%nNodes],
			50*float64(1+i%4), 0.1*float64(i%3), "l")
	}
	route := func(a, b byte) []LinkID {
		k := 1 + int(a)%3
		step := 1 + int(b)%3
		out := make([]LinkID, 0, k)
		for j := 0; j < k; j++ {
			out = append(out, links[(int(a)+j*step)%nLinks])
		}
		return out
	}

	var rec faultRecord
	var flows []*Flow
	slot := 0
	for i := 0; i+3 <= len(data); i += 3 {
		slot++
	}
	flows = make([]*Flow, 0, slot)
	// A flow's handle is valid until its Done returns; the Flow object
	// may then be recycled. So each handle keeps its start ID, a
	// completed flow's final observables are taken inside Done, and
	// ops on a handle whose ID moved on are skipped (they were no-ops
	// on the completed flow).
	ids := make([]uint64, 0, slot)
	type doneSnap struct {
		ok                  bool
		remaining, finished float64
		retries             int
	}
	snaps := make([]doneSnap, 0, slot)
	at := sim.Time(0)
	for i := 0; i+3 <= len(data); i += 3 {
		op, a, b := data[i], data[i+1], data[i+2]
		at += sim.Time(b&7) * 0.25
		switch t, kind := at, op%8; kind {
		case 0, 1:
			idx := len(flows)
			flows = append(flows, nil) // slot reserved in program order
			ids = append(ids, 0)
			snaps = append(snaps, doneSnap{})
			primary := route(a, b)
			spare := route(a+3, b+5)
			s.At(t, func() {
				spec := FlowSpec{
					Links: primary, Bytes: 25 * float64(1+int(b)%32), Latency: -1,
					Done: func(g *Flow) {
						rec.finishOrder = append(rec.finishOrder, g.ID())
						snaps[idx] = doneSnap{true, g.remaining, g.finished, g.Retries()}
					},
					OnFail: func(g *Flow) { rec.failOrder = append(rec.failOrder, g.ID()) },
				}
				if kind == 1 {
					spec.Reroute = func(attempt int) ([]LinkID, bool) {
						if attempt > 2 {
							return nil, false
						}
						return spare, true
					}
				}
				flows[idx] = net.StartFlow(spec)
				ids[idx] = flows[idx].ID()
			})
		case 2:
			s.At(t, func() { net.Link(links[int(a)%nLinks]).Fail() })
		case 3:
			s.At(t, func() {
				if l := net.Link(links[int(a)%nLinks]); !l.Failed() {
					l.Degrade(float64(1+int(b)%10) / 10)
				}
			})
		case 4:
			s.At(t, func() {
				if l := net.Link(links[int(a)%nLinks]); !l.Failed() {
					l.Restore()
				}
			})
		default: // 5 pause, 6 resume, 7 cancel
			s.At(t, func() {
				if len(flows) == 0 {
					return
				}
				i := int(a) % len(flows)
				g := flows[i]
				if g == nil || g.ID() != ids[i] {
					return
				}
				switch kind {
				case 5:
					g.Pause()
				case 6:
					g.Resume()
				case 7:
					g.Cancel()
				}
			})
		}
	}
	rec.endTime = s.RunUntil(1e6)
	for i, g := range flows {
		if g == nil {
			rec.states = append(rec.states, FlowLatency)
			rec.remaining = append(rec.remaining, -1)
			rec.finished = append(rec.finished, -1)
			rec.retries = append(rec.retries, -1)
			continue
		}
		if sn := snaps[i]; sn.ok {
			rec.states = append(rec.states, FlowDone)
			rec.remaining = append(rec.remaining, sn.remaining)
			rec.finished = append(rec.finished, sn.finished)
			rec.retries = append(rec.retries, sn.retries)
			continue
		}
		rec.states = append(rec.states, g.State())
		rec.remaining = append(rec.remaining, g.remaining)
		rec.finished = append(rec.finished, g.finished)
		rec.retries = append(rec.retries, g.Retries())
	}
	for _, id := range links {
		rec.linkBytes = append(rec.linkBytes, net.Link(id).BytesCarried())
	}
	return rec
}
