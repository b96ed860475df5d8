package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"github.com/wafernet/fred/internal/sim"
)

type recKind uint8

const (
	recSpan       recKind = iota
	recAsyncBegin         // paired begin/end emitted from one AsyncSpan record
	recAsyncInstant
	recInstant
	recCounter
)

type record struct {
	kind  recKind
	tid   int // synchronous track id (1-based); 0 for async/counter
	cat   string
	name  string
	id    uint64
	ts    float64 // microseconds
	dur   float64 // microseconds, spans only
	args  []Arg
	value float64 // counters only
}

// Recorder is a Tracer that accumulates events in memory and exports
// them as Chrome trace-event JSON ("JSON Object Format"). Export is
// fully deterministic: track ids are assigned in first-use order,
// events are written in emission order, and floats are formatted with
// strconv so identical runs produce byte-identical files.
type Recorder struct {
	// runs holds the records in emission order: the recorder's own,
	// appended to the last run, and the runs taken over by Move.
	runs    [][]record
	tids    map[string]int
	tracks  []string // index i holds the name of tid i+1
	process string
}

// NewRecorder returns an empty Recorder whose exported process is
// named "fred-sim".
func NewRecorder() *Recorder {
	return &Recorder{tids: make(map[string]int), process: "fred-sim"}
}

// SetProcessName overrides the process name shown in the trace viewer.
func (r *Recorder) SetProcessName(name string) { r.process = name }

// add appends one record to the last run.
func (r *Recorder) add(rec record) {
	if len(r.runs) == 0 {
		r.runs = append(r.runs, nil)
	}
	last := &r.runs[len(r.runs)-1]
	*last = append(*last, rec)
}

// Len returns the number of recorded events (an AsyncSpan counts
// once even though it exports a begin/end pair).
func (r *Recorder) Len() int {
	n := 0
	for _, run := range r.runs {
		n += len(run)
	}
	return n
}

// Spans returns the number of recorded duration events (Span and
// AsyncSpan records).
func (r *Recorder) Spans() int {
	n := 0
	for _, run := range r.runs {
		for i := range run {
			if run[i].kind == recSpan || run[i].kind == recAsyncBegin {
				n++
			}
		}
	}
	return n
}

// Move appends src's records to r under the namespace name and leaves
// src empty. Every category and track gains "/<name>" after its first
// path element — "flow" becomes "flow/<name>" and "link/<l>" becomes
// "link/<name>/<l>" — so the runs of many networks, whose simulated
// clocks all start at zero, stay apart on one timeline. The records
// are moved, not copied: a merged trace never exists twice in memory.
func (r *Recorder) Move(src *Recorder, name string) {
	spaced := make(map[string]string)
	ns := func(s string) string {
		if v, ok := spaced[s]; ok {
			return v
		}
		v := s + "/" + name
		if i := strings.IndexByte(s, '/'); i >= 0 {
			v = s[:i] + "/" + name + s[i:]
		}
		spaced[s] = v
		return v
	}
	tids := make([]int, len(src.tracks))
	for i, track := range src.tracks {
		tids[i] = r.tid(ns(track))
	}
	for _, run := range src.runs {
		for i := range run {
			rec := &run[i]
			switch rec.kind {
			case recSpan, recInstant:
				rec.tid = tids[rec.tid-1]
			case recCounter:
				rec.name = ns(rec.name) // the counter's track
			default:
				rec.cat = ns(rec.cat)
			}
		}
	}
	r.runs = append(r.runs, src.runs...)
	src.runs, src.tracks = nil, nil
	clear(src.tids)
}

func (r *Recorder) tid(track string) int {
	if id, ok := r.tids[track]; ok {
		return id
	}
	r.tracks = append(r.tracks, track)
	id := len(r.tracks)
	r.tids[track] = id
	return id
}

const usPerSec = 1e6

// Span implements Tracer.
func (r *Recorder) Span(track, name string, start, end sim.Time, args ...Arg) {
	r.add(record{
		kind: recSpan, tid: r.tid(track), name: name,
		ts: start * usPerSec, dur: (end - start) * usPerSec, args: args,
	})
}

// AsyncSpan implements Tracer.
func (r *Recorder) AsyncSpan(cat, name string, id uint64, start, end sim.Time, args ...Arg) {
	r.add(record{
		kind: recAsyncBegin, cat: cat, name: name, id: id,
		ts: start * usPerSec, dur: (end - start) * usPerSec, args: args,
	})
}

// AsyncInstant implements Tracer.
func (r *Recorder) AsyncInstant(cat, name string, id uint64, t sim.Time, args ...Arg) {
	r.add(record{
		kind: recAsyncInstant, cat: cat, name: name, id: id,
		ts: t * usPerSec, args: args,
	})
}

// Instant implements Tracer.
func (r *Recorder) Instant(track, name string, t sim.Time, args ...Arg) {
	r.add(record{
		kind: recInstant, tid: r.tid(track), name: name,
		ts: t * usPerSec, args: args,
	})
}

// Counter implements Tracer.
func (r *Recorder) Counter(track, series string, t sim.Time, value float64) {
	r.add(record{
		kind: recCounter, name: track, cat: series,
		ts: t * usPerSec, value: value,
	})
}

var _ Tracer = (*Recorder)(nil)

// appendFloat appends f formatted deterministically for JSON. The
// trace format cannot encode non-finite numbers, so they are clamped.
func appendFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 1) || math.IsNaN(f) {
		f = math.MaxFloat64
	} else if math.IsInf(f, -1) {
		f = -math.MaxFloat64
	}
	return strconv.AppendFloat(b, f, 'g', -1, 64)
}

// quoteMemo memoizes strconv.Quote for the duration of one WriteJSON
// call. A trace repeats a few hundred distinct names, categories and
// argument strings across hundreds of thousands of events, and quoting
// rescans every rune of its input.
type quoteMemo map[string]string

// append appends s quoted exactly as strconv.AppendQuote would.
func (m quoteMemo) append(b []byte, s string) []byte {
	q, ok := m[s]
	if !ok {
		q = strconv.Quote(s)
		m[s] = q
	}
	return append(b, q...)
}

func appendArgs(b []byte, q quoteMemo, args []Arg) []byte {
	b = append(b, `,"args":{`...)
	for i, a := range args {
		if i > 0 {
			b = append(b, ',')
		}
		b = q.append(b, a.Key)
		b = append(b, ':')
		switch v := a.Value.(type) {
		case string:
			b = q.append(b, v)
		case float64:
			b = appendFloat(b, v)
		case int:
			b = strconv.AppendInt(b, int64(v), 10)
		case uint64:
			b = strconv.AppendUint(b, v, 10)
		case bool:
			b = strconv.AppendBool(b, v)
		default:
			b = strconv.AppendQuote(b, fmt.Sprint(v))
		}
	}
	return append(b, '}')
}

// appendEvent renders one trace event object (no trailing separator).
func appendEvent(b []byte, q quoteMemo, ph byte, name, cat string, tid int, id uint64, hasID bool, ts float64, hasDur bool, dur float64, args []Arg) []byte {
	b = append(b, `{"name":`...)
	b = q.append(b, name)
	if cat != "" {
		b = append(b, `,"cat":`...)
		b = q.append(b, cat)
	}
	b = append(b, `,"ph":"`...)
	b = append(b, ph)
	b = append(b, `","pid":1,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	if hasID {
		b = append(b, `,"id":"`...)
		b = strconv.AppendUint(b, id, 10)
		b = append(b, '"')
	}
	b = append(b, `,"ts":`...)
	b = appendFloat(b, ts)
	if hasDur {
		b = append(b, `,"dur":`...)
		b = appendFloat(b, dur)
	}
	if args != nil {
		b = appendArgs(b, q, args)
	}
	return append(b, '}')
}

// WriteJSON exports the trace in Chrome trace-event JSON object
// format.
func (r *Recorder) WriteJSON(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	bw.WriteString(`{"traceEvents":[`)
	var scratch []byte
	q := make(quoteMemo)
	writeEvent := func(b []byte) {
		bw.WriteString("\n")
		bw.Write(b)
		bw.WriteString(",")
	}
	// Metadata: process name, then one thread per synchronous track in
	// first-use order.
	scratch = appendEvent(scratch[:0], q, 'M', "process_name", "", 0, 0, false, 0, false, 0,
		[]Arg{String("name", r.process)})
	writeEvent(scratch)
	for i, track := range r.tracks {
		scratch = appendEvent(scratch[:0], q, 'M', "thread_name", "", i+1, 0, false, 0, false, 0,
			[]Arg{String("name", track)})
		writeEvent(scratch)
	}
	for _, run := range r.runs {
		for i := range run {
			rec := &run[i]
			switch rec.kind {
			case recSpan:
				scratch = appendEvent(scratch[:0], q, 'X', rec.name, "", rec.tid, 0, false, rec.ts, true, rec.dur, rec.args)
				writeEvent(scratch)
			case recAsyncBegin:
				scratch = appendEvent(scratch[:0], q, 'b', rec.name, rec.cat, 0, rec.id, true, rec.ts, false, 0, rec.args)
				writeEvent(scratch)
				scratch = appendEvent(scratch[:0], q, 'e', rec.name, rec.cat, 0, rec.id, true, rec.ts+rec.dur, false, 0, nil)
				writeEvent(scratch)
			case recAsyncInstant:
				scratch = appendEvent(scratch[:0], q, 'n', rec.name, rec.cat, 0, rec.id, true, rec.ts, false, 0, rec.args)
				writeEvent(scratch)
			case recInstant:
				scratch = appendEvent(scratch[:0], q, 'i', rec.name, "", rec.tid, 0, false, rec.ts, false, 0, rec.args)
				writeEvent(scratch)
			case recCounter:
				scratch = appendEvent(scratch[:0], q, 'C', rec.name, "", 0, 0, false, rec.ts, false, 0,
					[]Arg{{Key: rec.cat, Value: rec.value}})
				writeEvent(scratch)
			}
		}
	}
	// Close the array with a final metadata event so every element can
	// end with a comma (the format tolerates it, but valid JSON is
	// nicer for tools): emit a terminator object instead.
	bw.WriteString("\n")
	scratch = appendEvent(scratch[:0], q, 'M', "trace_complete", "", 0, 0, false, 0, false, 0,
		[]Arg{Int("events", r.Len())})
	bw.Write(scratch)
	bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	return bw.Flush()
}

// WriteFile exports the trace to a file.
func (r *Recorder) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
