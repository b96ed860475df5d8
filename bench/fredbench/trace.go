package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// tracer records spans in memory around the public calls the benchmark
// makes and writes them out when the run ends. A nil *tracer records
// nothing, so an untraced run pays one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// span is one timed call. Spans of one pass or request share Op.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
	Parent int    `json:"parent"` // -1 for a root span
	Op     int64  `json:"op"`
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id, the parent of any span opened
// inside it.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now, Parent: parent, Op: op})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// fillSelf sets each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap when they
// ran on several goroutines, so the covered part is their union.
func (t *tracer) fillSelf() {
	children := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return t.spans[kids[a]].Start < t.spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, c := range kids {
			start, end := max(t.spans[c].Start, reach), min(t.spans[c].End, s.End)
			if end > start {
				covered += end - start
				reach = end
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// printSelfTimes prints the span names with the most self time.
func (t *tracer) printSelfTimes(w io.Writer, top int) {
	t.fillSelf()
	type agg struct {
		name  string
		n     int
		total int64
	}
	by := map[string]*agg{}
	var all int64
	for _, s := range t.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{name: s.Name}
			by[s.Name] = a
		}
		a.n++
		a.total += s.Self
		all += s.Self
	}
	var rows []*agg
	for _, a := range by {
		rows = append(rows, a)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].total > rows[j].total })
	fmt.Fprintf(w, "%-32s %8s %12s %7s\n", "span self time", "count", "total ms", "share")
	for i, a := range rows {
		if i == top {
			break
		}
		fmt.Fprintf(w, "%-32s %8d %12.1f %6.1f%%\n", a.name, a.n, float64(a.total)/1e6, 100*float64(a.total)/float64(all))
	}
}

func (t *tracer) writeFile(path, workload string) error {
	t.fillSelf()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// modulePath prefixes the simulator's packages in profile frames.
const modulePath = "github.com/wafernet/fred/internal/"

// leafShares reads a gzipped pprof CPU profile and returns each
// package's share of the sampled CPU time, charging every sample to the
// package of its innermost frame (leaf-frame self time).
func leafShares(profile []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(profile))
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("reading CPU profile: %w", err)
	}
	// The profile.proto fields used here: Profile.sample (2),
	// Profile.location (4), Profile.function (5), Profile.string_table
	// (6); Sample.location_id (1), Sample.value (2); Location.id (1),
	// Location.line (4); Line.function_id (1); Function.id (1),
	// Function.name (2).
	var strs []string
	funcName := map[uint64]uint64{}
	locFunc := map[uint64]uint64{}
	type sample struct {
		leaf  uint64
		value int64
	}
	var samples []sample
	err = pbFields(data, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			var locs, vals []uint64
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					locs = appendVarints(locs, v, b)
				case 2:
					vals = appendVarints(vals, v, b)
				}
				return nil
			})
			if err != nil || len(locs) == 0 || len(vals) == 0 {
				return err
			}
			samples = append(samples, sample{leaf: locs[0], value: int64(vals[len(vals)-1])})
		case 4:
			var id, fn uint64
			lines := 0
			err := pbFields(b, func(n int, v uint64, b []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					// The first line is the innermost inlined call.
					if lines++; lines == 1 {
						return pbFields(b, func(n int, v uint64, _ []byte) error {
							if n == 1 {
								fn = v
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5:
			var id, name uint64
			err := pbFields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("decoding CPU profile: %w", err)
	}
	shares := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if i := funcName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		shares[pkgOf(name)] += float64(s.value)
		total += float64(s.value)
	}
	for k := range shares {
		shares[k] /= total
	}
	return shares, nil
}

// pkgOf maps a profile function name to the short package name the
// cpu.<pkg>_share metrics use.
func pkgOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may contain slashes
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	path := fn[:slash+1+dot]
	switch {
	case strings.HasPrefix(path, modulePath):
		return strings.TrimPrefix(path, modulePath)
	case path == "runtime", strings.HasPrefix(path, "runtime/"), strings.HasPrefix(path, "internal/runtime/"):
		return "runtime"
	}
	return strings.NewReplacer("/", "_", ".", "_").Replace(path)
}

var errTruncated = errors.New("truncated protobuf")

// pbFields calls fn for each field of a protobuf message: varint fields
// with their value, length-delimited fields with their bytes. Fixed-size
// fields are skipped.
func pbFields(b []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var sub []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1, 5:
			size := 8
			if key&7 == 5 {
				size = 4
			}
			if len(b) < size {
				return errTruncated
			}
			b = b[size:]
			continue
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			sub, b = b[n:n+int(l)], b[n+int(l):]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(num, v, sub); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when unpacked (b nil), or every varint of a packed run.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
