// Package obs is the wall-clock plane of the flight recorder: a
// progress engine that tracks an experiment session's cells as they
// run — completed/total counts, per-cell simulated time, an ETA — and
// surfaces them as a stderr status line, a JSON snapshot, and an SSE
// stream (see http.go for the -debug-addr endpoint).
//
// Unlike everything under internal/timeseries, this plane observes the
// host, not the simulation: its clock is wall time. Determinism is
// still engineered where tests need it — the clock is injectable, and
// the engine reads it only at construction and at cell completion, so
// with a fake clock that advances per call the k-th completion always
// observes the same timestamp no matter how a worker pool interleaves
// cell starts. The snapshot after the final cell is therefore
// byte-identical at every -parallel width.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Snapshot is one observed progress state, JSON-encodable for the
// /progress endpoint and the SSE stream.
type Snapshot struct {
	// Study names the most recently started study.
	Study string `json:"study,omitempty"`
	// Studies counts the studies started so far.
	Studies int `json:"studies"`
	// CellsTotal / CellsDone / CellsFailed count experiment cells
	// across every study started so far.
	CellsTotal  int `json:"cells_total"`
	CellsDone   int `json:"cells_done"`
	CellsFailed int `json:"cells_failed,omitempty"`
	// ElapsedS is wall-clock seconds since the engine was created, as
	// of the snapshot's clock read.
	ElapsedS float64 `json:"elapsed_s"`
	// ETAS estimates the remaining wall-clock seconds by scaling
	// elapsed time per completed cell over the remaining cells; -1
	// until the first cell completes.
	ETAS float64 `json:"eta_s"`
	// Running lists the in-flight cells sorted by (study, cell), each
	// with its latest sampled simulated time.
	Running []CellSnapshot `json:"running,omitempty"`
}

// CellSnapshot is one in-flight cell in a Snapshot.
type CellSnapshot struct {
	Study string `json:"study"`
	Cell  int    `json:"cell"`
	// SimTimeS is the cell's simulated clock as of the last sample the
	// scheduler hook pushed (0 until the first sample).
	SimTimeS float64 `json:"sim_time_s"`
}

// Cell is a handle for one in-flight experiment cell. Its setters are
// safe to call from the cell's worker goroutine while other goroutines
// snapshot the engine.
type Cell struct {
	study   string
	index   int
	simTime atomic.Uint64 // float64 bits
}

// SetSimTime publishes the cell's current simulated clock. Called from
// a throttled scheduler event hook.
func (c *Cell) SetSimTime(t float64) {
	if c == nil {
		return
	}
	c.simTime.Store(math.Float64bits(t))
}

// Engine aggregates cell progress. All methods are safe for concurrent
// use.
type Engine struct {
	now func() time.Time

	// notify serializes CellFinished from its snapshot to the last
	// callback, so concurrent completions reach the callbacks one at a
	// time and in completion order.
	notify sync.Mutex

	mu       sync.Mutex
	start    time.Time
	study    string
	studies  int
	total    int
	done     int
	failed   int
	running  []*Cell
	onUpdate []func(Snapshot)
}

// NewEngine returns an engine reading the given clock (nil means
// time.Now). The clock is read once here and once per cell completion
// — never per cell start — so a fake clock advancing one step per call
// produces the same completion timestamps at every worker-pool width.
func NewEngine(clock func() time.Time) *Engine {
	if clock == nil {
		clock = time.Now
	}
	return &Engine{now: clock, start: clock()}
}

// OnUpdate registers a callback invoked with a fresh snapshot after
// every cell completion — the hook the status line and the SSE stream
// hang off. Callbacks run sequentially under the engine's lock order
// (one at a time, in registration order) on the completing cell's
// goroutine; keep them fast.
func (e *Engine) OnUpdate(fn func(Snapshot)) {
	e.mu.Lock()
	e.onUpdate = append(e.onUpdate, fn)
	e.mu.Unlock()
}

// StudyStarted declares a study of n cells. Totals accumulate across
// studies, so a multi-study driver run (fredsim all) reports one
// overall completion count.
func (e *Engine) StudyStarted(study string, n int) {
	e.mu.Lock()
	e.study = study
	e.studies++
	e.total += n
	e.mu.Unlock()
}

// CellStarted registers an in-flight cell and returns its handle.
func (e *Engine) CellStarted(study string, cell int) *Cell {
	c := &Cell{study: study, index: cell}
	e.mu.Lock()
	e.running = append(e.running, c)
	e.mu.Unlock()
	return c
}

// CellFinished retires a cell, reads the clock, and notifies every
// OnUpdate callback with the post-completion snapshot. A nil cell is
// ignored.
func (e *Engine) CellFinished(c *Cell, failed bool) {
	if c == nil {
		return
	}
	e.notify.Lock()
	defer e.notify.Unlock()
	e.mu.Lock()
	for i, rc := range e.running {
		if rc == c {
			e.running = append(e.running[:i], e.running[i+1:]...)
			break
		}
	}
	e.done++
	if failed {
		e.failed++
	}
	snap := e.snapshotLocked(e.now())
	cbs := e.onUpdate
	e.mu.Unlock()
	for _, fn := range cbs {
		fn(snap)
	}
}

// Snapshot reads the clock and returns the current progress state.
func (e *Engine) Snapshot() Snapshot {
	now := e.now()
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.snapshotLocked(now)
}

// snapshotLocked assembles a snapshot under the lock for a given clock
// reading.
func (e *Engine) snapshotLocked(now time.Time) Snapshot {
	s := Snapshot{
		Study:       e.study,
		Studies:     e.studies,
		CellsTotal:  e.total,
		CellsDone:   e.done,
		CellsFailed: e.failed,
		ElapsedS:    now.Sub(e.start).Seconds(),
		ETAS:        -1,
	}
	if e.done > 0 {
		s.ETAS = s.ElapsedS / float64(e.done) * float64(e.total-e.done)
	}
	for _, c := range e.running {
		s.Running = append(s.Running, CellSnapshot{
			Study:    c.study,
			Cell:     c.index,
			SimTimeS: math.Float64frombits(c.simTime.Load()),
		})
	}
	sort.Slice(s.Running, func(i, j int) bool {
		if s.Running[i].Study != s.Running[j].Study {
			return s.Running[i].Study < s.Running[j].Study
		}
		return s.Running[i].Cell < s.Running[j].Cell
	})
	return s
}

// StatusLine renders snapshots as a single self-overwriting stderr
// line ("\r"-prefixed, space-padded to erase the previous render).
// Register Update with Engine.OnUpdate; call Done once the run ends to
// terminate the line with a newline. Safe for concurrent Update calls.
type StatusLine struct {
	mu    sync.Mutex
	w     io.Writer
	tool  string
	width int
	wrote bool
}

// NewStatusLine returns a renderer writing to w, prefixing every line
// with the tool name.
func NewStatusLine(w io.Writer, tool string) *StatusLine {
	return &StatusLine{w: w, tool: tool}
}

// Update renders one snapshot.
func (l *StatusLine) Update(s Snapshot) {
	line := fmt.Sprintf("%s: %s %d/%d cells · elapsed %.1fs · eta %s",
		l.tool, s.Study, s.CellsDone, s.CellsTotal, s.ElapsedS, formatETA(s.ETAS))
	if s.CellsFailed > 0 {
		line += fmt.Sprintf(" · %d FAILED", s.CellsFailed)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	pad := l.width - len(line)
	l.width = len(line)
	for pad > 0 {
		line += " "
		pad--
	}
	fmt.Fprint(l.w, "\r"+line)
	l.wrote = true
}

// Done terminates the status line with a newline (only if anything was
// rendered).
func (l *StatusLine) Done() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.wrote {
		fmt.Fprintln(l.w)
	}
}

// formatETA renders an ETA estimate ("?" before the first completion).
func formatETA(eta float64) string {
	if eta < 0 {
		return "?"
	}
	return fmt.Sprintf("%.1fs", eta)
}
