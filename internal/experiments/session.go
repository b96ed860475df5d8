package experiments

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netobs"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/obs"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/trace"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// Session owns the observability state and the worker pool of one
// experiment run. Every driver is a Session method; each figure/table
// cell it executes builds a fresh scheduler+network, so cells are fully
// self-contained simulations and independent cells can run concurrently.
// A training cell that several studies share is simulated once per
// session and its report reused (the sweep memo, memo.go), unless an
// observer is attached.
//
// The zero-config session (NewSession) runs cells across GOMAXPROCS
// workers with observability off. Every observer, the tracer included,
// records into a buffer of the network it observes, and the buffers
// merge in cell order, so every artifact is byte-identical at every
// pool width.
//
// A Session's Build and RunTraining may be called from multiple
// goroutines concurrently: the collected records and the build count
// are mutex-guarded.
type Session struct {
	// obs is the set of observers attached to every network the session
	// builds; forEach copies it whole into child sessions.
	obs observers

	// place is the session's position in a traced sweep, one
	// "<fan-out>:<cell>:" pair per enclosing cell, outermost first; a
	// traced network's name appends its build index and system.
	place string

	// progress is the wall-clock flight-recorder plane: when set, every
	// forEach reports study/cell lifecycle events to it. Child sessions
	// carry the engine, so nested fan-outs count too, and the in-flight
	// cell's token (cellTok), so the networks a cell builds can push
	// their simulated clock into the live /progress view.
	progress *obs.Engine
	cellTok  *obs.Cell

	// tokens are the pool's free helper slots (see fanOut): one fewer
	// than the pool width, since the caller is the first worker. Child
	// sessions share the channel, so nested fan-outs draw on one pool.
	tokens chan struct{}

	// ctx, when non-nil, is threaded into every subsequently built
	// simulation: each fresh scheduler polls it between events
	// (sim.Scheduler.BindContext), so a deadline or cancellation
	// aborts runaway cells cleanly — RunTraining and the collective
	// runners return sim.ErrCanceled instead of running forever.
	// Child sessions inherit it.
	ctx context.Context

	// memo holds every training cell the session has simulated (see
	// memo.go), so a cell that several studies share runs once.
	// forEach's child sessions inherit the pointer. Observed sessions
	// bypass it.
	memo *trainMemo

	mu     sync.Mutex
	builds int // networks built so far: the next build's index
	errs   []error
	// records holds what each observed network contributes to the
	// session's artifacts, in build order; fanOut appends each child's
	// records in cell order.
	records []*netRecord
	trace   *trace.Recorder // the merged trace (Trace)
}

// observers is the set of observers a session attaches to every
// network it builds (observeNetwork).
type observers struct {
	trace, linkStats, metrics, crit, ts bool
}

// enabled reports whether any observer is on.
func (o observers) enabled() bool {
	return o.trace || o.linkStats || o.metrics || o.crit || o.ts
}

// netRecord is one observed network's share of the session's
// artifacts: its trace buffer, registry and flight recorder from the
// build on, and, once a training run on it ends, its critical-path
// iteration and hotspot table. Each field is nil while its observer is
// off. name is the network's trace namespace. net is the network until
// its run ends (endRuns).
type netRecord struct {
	net   *netsim.Network
	name  string
	tr    *trace.Recorder
	reg   *metrics.Registry
	ts    *timeseries.Recorder
	crit  *critpath.Iteration
	table *report.Table
}

// dropRecords clears one field of every record collected so far, so
// enabling an observer starts its artifact afresh.
func (s *Session) dropRecords(drop func(*netRecord)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.records {
		drop(r)
	}
}

// endRuns ends the run of every recorded network that is still open —
// a network a cell observed without training on it — so its observers
// close their trailing intervals, and lets the network go.
func (s *Session) endRuns() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.records {
		if r.net != nil {
			r.net.EndRun()
			r.net = nil
		}
	}
}

// collected ends every open run and returns the records in order;
// callers read them only.
func (s *Session) collected() []*netRecord {
	s.endRuns()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.records
}

// CellError reports a panic recovered from one experiment cell: the
// study driver it belonged to, the cell index, the panic value, and
// the goroutine stack captured at the recovery point — without it a
// recovered panic loses the one thing needed to debug it.
type CellError struct {
	Study string
	Cell  int
	Value interface{}
	// Stack is the panicking goroutine's stack (runtime/debug.Stack),
	// captured inside the deferred recover so the panic site frames
	// are still on it.
	Stack string
}

func (e *CellError) Error() string {
	msg := fmt.Sprintf("experiments: %s: cell %d panicked: %v", e.Study, e.Cell, e.Value)
	if e.Stack != "" {
		msg += "\n" + e.Stack
	}
	return msg
}

// addErr records a cell failure on the session.
func (s *Session) addErr(err error) {
	s.mu.Lock()
	s.errs = append(s.errs, err)
	s.mu.Unlock()
}

// Err returns the session's accumulated cell failures as a single
// error, or nil when every cell so far completed. A panicking cell no
// longer kills the whole run: the other cells of its study finish, the
// failure is recorded here, and drivers like fredsim exit non-zero.
func (s *Session) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch len(s.errs) {
	case 0:
		return nil
	case 1:
		return s.errs[0]
	}
	msg := fmt.Sprintf("experiments: %d cells failed:", len(s.errs))
	for _, e := range s.errs {
		msg += "\n  " + e.Error()
	}
	return fmt.Errorf("%s", msg)
}

// NewSession returns a session with observability off and the worker
// pool sized to GOMAXPROCS.
func NewSession() *Session {
	s := &Session{memo: newTrainMemo()}
	s.SetParallel(0)
	return s
}

// ShareSchedules does nothing: every cell compiles its own collective
// schedules.
//
// Deprecated: there is no cross-cell schedule cache to toggle. Its only
// caller is the fredbench benchmark module.
func (s *Session) ShareSchedules(on bool) {}

// SetParallel sizes the worker pool used to fan independent cells out:
// n ≤ 0 means GOMAXPROCS, 1 means sequential. Merged rows and tables
// are byte-identical for every pool size — cells are isolated
// simulations and results merge in deterministic paper order.
func (s *Session) SetParallel(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	s.tokens = make(chan struct{}, n-1)
}

// CollectTrace toggles tracing: every subsequently built system gets a
// trace buffer of its own, into which its network (flow spans, link
// counters), its scheduler (event-count samples) and its training runs
// (collective-op spans) record. Enabling resets the previously
// collected trace.
func (s *Session) CollectTrace(on bool) {
	s.obs.trace = on
	s.dropRecords(func(r *netRecord) { r.tr = nil })
	s.mu.Lock()
	s.trace = trace.NewRecorder()
	s.mu.Unlock()
}

// Trace moves every collected trace buffer into the session's trace,
// in build order, and returns it, or nil if CollectTrace was never
// called. Each network's categories and tracks are namespaced by its
// name (trace.Recorder.Move), so the exported trace is byte-identical
// at every worker-pool size.
func (s *Session) Trace() *trace.Recorder {
	recs := s.collected()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range recs {
		if r.tr != nil {
			s.trace.Move(r.tr, r.name)
			r.tr = nil
		}
	}
	return s.trace
}

// CollectLinkStats toggles per-run link-statistics collection: every
// subsequent RunTraining appends a top-10 hotspot table, retrievable
// with LinkStatsTables. Enabling resets previously collected tables.
func (s *Session) CollectLinkStats(on bool) {
	s.obs.linkStats = on
	s.dropRecords(func(r *netRecord) { r.table = nil })
}

// LinkStatsTables returns the hotspot tables collected since
// CollectLinkStats(true), one per training run, in driver cell order
// regardless of which worker ran each cell.
func (s *Session) LinkStatsTables() (out []*report.Table) {
	for _, r := range s.collected() {
		if r.table != nil {
			out = append(out, r.table)
		}
	}
	return out
}

// CollectMetrics toggles metrics collection: every subsequently built
// system gets a private registry (netsim flow counters, per-link
// utilization distributions and, once its run ends, the fill
// counters), and every RunTraining additionally records its report
// (iteration breakdown, per-class comm profile, per-NPU attribution).
// Enabling resets previously collected registries.
func (s *Session) CollectMetrics(on bool) {
	s.obs.metrics = on
	s.dropRecords(func(r *netRecord) { r.reg = nil })
}

// Metrics merges every collected registry in build order — the same
// deterministic record order as the hotspot tables, so the merged
// registry (and its exported artifact) is byte-identical at every
// worker-pool size.
func (s *Session) Metrics() *metrics.Registry {
	merged := metrics.NewRegistry()
	for _, r := range s.collected() {
		if r.reg != nil {
			merged.Merge(r.reg)
		}
	}
	return merged
}

// CollectCritPath toggles critical-path recording: every subsequently
// built system gets a causal critpath recorder (netsim.SetCritPath),
// and every RunTraining appends its analyzed per-iteration blame
// decomposition, labeled with the cell's workload/strategy/system.
// Enabling resets previously collected iterations.
func (s *Session) CollectCritPath(on bool) {
	s.obs.crit = on
	s.dropRecords(func(r *netRecord) { r.crit = nil })
}

// CritPathCells returns the iterations collected since
// CollectCritPath(true), in driver cell order regardless of which
// worker ran each cell — the same deterministic record order as the
// hotspot tables, so the exported fred-critpath/v1 artifact is
// byte-identical at every worker-pool size.
func (s *Session) CritPathCells() (out []critpath.Iteration) {
	for _, r := range s.collected() {
		if r.crit != nil {
			out = append(out, *r.crit)
		}
	}
	return out
}

// CollectTimeseries toggles the simulated-time flight recorder: every
// subsequently built system gets a timeseries.Recorder hooked onto its
// scheduler (sampling heap depth, flow activity, fill work, link
// utilization and — when critpath collection is also on — cumulative
// blame), finished at the cell's final simulated time. Enabling resets
// previously collected recorders.
func (s *Session) CollectTimeseries(on bool) {
	s.obs.ts = on
	s.dropRecords(func(r *netRecord) { r.ts = nil })
}

// TimeseriesCells returns the recorded cells collected since
// CollectTimeseries(true), in driver cell order regardless of which
// worker ran each cell — the same deterministic record order as the
// other artifacts, so the exported fred-timeseries/v1 artifact is
// byte-identical at every worker-pool size.
func (s *Session) TimeseriesCells() (out []timeseries.Cell) {
	for _, r := range s.collected() {
		if r.ts != nil {
			out = append(out, r.ts.Snapshot())
		}
	}
	return out
}

// SetProgress attaches the wall-clock progress engine: every forEach
// reports study starts and cell start/finish events to it, and each
// in-flight cell's simulated clock is sampled into the engine's
// snapshots via a throttled scheduler hook. Pass nil to detach.
func (s *Session) SetProgress(e *obs.Engine) { s.progress = e }

// SetContext threads ctx into every simulation the session
// subsequently builds: each fresh scheduler polls the context between
// events (sim.Scheduler.BindContext), so canceling it — or letting
// its deadline expire — aborts even a runaway cell cleanly.
// RunTraining then returns an error matching sim.ErrCanceled instead
// of a report. Pass nil to detach. The long-running fredd daemon uses
// this for per-job deadlines; the batch drivers leave it unset.
func (s *Session) SetContext(ctx context.Context) { s.ctx = ctx }

// ObserveCell attaches an externally managed progress-cell handle:
// every network the session subsequently builds pushes its simulated
// clock into it via a throttled scheduler hook, exactly as forEach
// wires its own cells. fredd uses this to stream per-job progress
// through the obs engine without going through forEach. Pass nil to
// detach.
func (s *Session) ObserveCell(tok *obs.Cell) { s.cellTok = tok }

// forEach executes fn(cell, cs) for every cell in [0, n), the session's
// unit of fan-out, and reports the study and its cells to the progress
// engine. See fanOut.
func (s *Session) forEach(study string, n int, fn func(cell int, cs *Session)) {
	s.fanOut(study, n, s.progress, fn)
}

// fanOut is forEach with the progress engine explicit: nil reports
// nothing, which All uses so that only the studies' own cells count.
//
// Each cell gets a child session — the parent's observer set, memo,
// context, progress engine and pool, with records, errors and build
// count of its own — and once every cell is done the children's
// records and errors are appended to the parent's in cell order, so
// artifacts merge back in cell order no matter which worker finishes
// first. Callers index result arrays by cell, which keeps row order
// deterministic by construction.
//
// The pool is shared by every nested fan-out of a session. The caller
// always works its own cells, in order; before each cell it claims, a
// worker spawns a helper for the remaining cells only if a token is
// free, and no goroutine ever waits for a token. So a one-worker pool
// runs every cell on the caller, nested fan-outs use whatever workers
// the outer ones leave idle, and neither they nor the sweep memo's
// single-flight can deadlock: every wait is on a cell some running
// goroutine is working.
//
// A cell that panics does not kill the run (or the process): the panic
// is recovered, tagged with the study name and cell index, and
// recorded on the cell's session — the remaining cells run to
// completion and Err reports the aggregate. A failed cell's row stays
// zero-valued in the caller's result array.
func (s *Session) fanOut(study string, n int, progress *obs.Engine, fn func(cell int, cs *Session)) {
	if progress != nil {
		progress.StudyStarted(study, n)
	}
	children := make([]*Session, n)
	for i := range children {
		cs := &Session{
			obs:      s.obs,
			progress: s.progress,
			cellTok:  s.cellTok,
			ctx:      s.ctx,
			memo:     s.memo,
			tokens:   s.tokens,
		}
		if s.obs.trace {
			cs.place = s.place + study + ":" + strconv.Itoa(i) + ":"
		}
		children[i] = cs
	}
	runCell := func(i int) {
		cs := children[i]
		if progress != nil {
			cs.cellTok = progress.CellStarted(study, i)
		}
		defer func() {
			failed := false
			if r := recover(); r != nil {
				cs.addErr(&CellError{Study: study, Cell: i, Value: r, Stack: string(debug.Stack())})
				failed = true
			}
			cs.endRuns()
			if progress != nil {
				progress.CellFinished(cs.cellTok, failed)
			}
		}()
		fn(i, cs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var work func()
	work = func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if i+1 < n {
				select {
				case s.tokens <- struct{}{}:
					wg.Add(1)
					go func() {
						defer wg.Done()
						defer func() { <-s.tokens }()
						work()
					}()
				default:
				}
			}
			runCell(i)
		}
	}
	work()
	wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, c := range children {
		s.records = append(s.records, c.records...)
		s.errs = append(s.errs, c.errs...)
	}
}

// observeNetwork subscribes the session's observers to a freshly
// built wafer network and returns the network's record, or nil when no
// observer is on. A traced network records into a buffer of its own
// under bare category and track names; Trace namespaces it by the
// network's name, so the many runs of one experiment, whose simulated
// clocks all start at zero, stay distinguishable in the merged trace.
func (s *Session) observeNetwork(net *netsim.Network, system System) *netRecord {
	if s.ctx != nil {
		net.Scheduler().BindContext(s.ctx, 0)
	}
	o := s.obs
	var rec *netRecord
	s.mu.Lock()
	build := s.builds
	s.builds++
	if o.enabled() {
		rec = &netRecord{net: net}
		s.records = append(s.records, rec)
	}
	s.mu.Unlock()
	if o.trace {
		rec.name = s.place + strconv.Itoa(build) + ":" + string(system)
		rec.tr = trace.NewRecorder()
		netobs.AttachTracer(net, rec.tr)
		trace.AttachSchedulerCounter(net.Scheduler(), rec.tr, "scheduler", 4096)
	}
	if o.linkStats {
		netobs.AttachLinkStats(net)
	}
	if o.metrics {
		rec.reg = metrics.NewRegistry()
		netobs.AttachMetrics(net, rec.reg)
	}
	if o.crit {
		net.SetCritPath(critpath.NewRecorder())
	}
	if o.ts {
		// After SetCritPath, so the recorder picks up the blame probes.
		rec.ts = timeseries.NewRecorder(timeseries.Config{})
		rec.ts.SetLabel(string(system))
		netobs.AttachTimeseries(net, rec.ts)
	}
	if tok := s.cellTok; tok != nil {
		// Push the in-flight cell's simulated clock into the live
		// progress view, throttled to one store per 4096 events.
		net.Scheduler().AddEventHook(func(now sim.Time, fired uint64) {
			if fired%4096 == 0 {
				tok.SetSimTime(now)
			}
		})
	}
	return rec
}

// RunTraining simulates one iteration of the model under the strategy
// on a fresh instance of the system. A configuration the simulator
// rejects (e.g. a strategy that no longer fits a degraded wafer) is
// returned as an error, not a panic; cells that treat their config as
// known-good may panic on it themselves, which forEach records as a
// CellError without killing the run.
//
// Unless an observer is attached, each distinct cell is simulated once
// per session: a repeat request returns the first run's report, whose
// Config no longer references the wafer. Treat the report as read-only.
func (s *Session) RunTraining(sys System, m *workload.Model, strat parallelism.Strategy, perReplica int) (*training.Report, error) {
	return s.runTraining(sys, m, strat, perReplica, false)
}

// runTraining is RunTraining with an extra knob: blamed forces a
// critpath recorder onto the freshly built wafer even when the session
// is not collecting critpath artifacts, so blame-column studies
// (Figure 10) always have a decomposition to print. Unobserved
// sessions go through the memo; an observer's artifacts need every
// call to simulate.
func (s *Session) runTraining(sys System, m *workload.Model, strat parallelism.Strategy, perReplica int, blamed bool) (*training.Report, error) {
	if s.obs.enabled() {
		return s.simulateTraining(sys, m, strat, perReplica, blamed)
	}
	key := trainKey{sys: sys, model: modelKey(m), strat: strat, perReplica: perReplica}
	return s.memo.do(key, blamed, func() (*training.Report, error) {
		r, err := s.simulateTraining(sys, m, strat, perReplica, blamed)
		if err != nil {
			return nil, err
		}
		return detach(r), nil
	})
}

// simulateTraining builds the system and simulates one iteration,
// feeding the session's observers.
func (s *Session) simulateTraining(sys System, m *workload.Model, strat parallelism.Strategy, perReplica int, blamed bool) (*training.Report, error) {
	w, rec := s.build(sys)
	net := w.Network()
	if blamed {
		ensureCritPath(net)
	}
	r, err := training.Simulate(training.Config{
		Wafer:               w,
		Model:               m,
		Strategy:            strat,
		MinibatchPerReplica: perReplica,
	})
	if err != nil {
		return nil, err
	}
	net.EndRun()
	if tok := s.cellTok; tok != nil {
		tok.SetSimTime(net.Scheduler().Now())
	}
	if rec != nil {
		rec.net = nil // ended above
		label := fmt.Sprintf("%s %v on %s", m.Name, strat, sys)
		r.RecordMetrics(rec.reg)
		if s.obs.crit && r.CritPath != nil {
			it := *r.CritPath
			it.Label = label
			rec.crit = &it
		}
		if s.obs.linkStats {
			title := fmt.Sprintf("Link hotspots: %s, %v on %s", m.Name, strat, sys)
			rec.table = netobs.HotspotTable(net, title, 10)
		}
	}
	return r, nil
}

// mustRunTraining is the known-good-config form: cells use it where a
// simulation error means the experiment itself is broken. The panic is
// recovered by forEach and surfaced via Err.
func (s *Session) mustRunTraining(sys System, m *workload.Model, strat parallelism.Strategy, perReplica int) *training.Report {
	r, err := s.RunTraining(sys, m, strat, perReplica)
	if err != nil {
		panic(err)
	}
	return r
}

// mustRunTrainingBlamed is mustRunTraining with critpath recording
// forced on, for cells whose table prints blame columns.
func (s *Session) mustRunTrainingBlamed(sys System, m *workload.Model, strat parallelism.Strategy, perReplica int) *training.Report {
	r, err := s.runTraining(sys, m, strat, perReplica, true)
	if err != nil {
		panic(err)
	}
	return r
}

// mustTrain is mustRunTraining for cells that assemble a bespoke
// training.Config rather than going through Build.
func mustTrain(cfg training.Config) *training.Report {
	r, err := training.Simulate(cfg)
	if err != nil {
		panic(err)
	}
	return r
}
