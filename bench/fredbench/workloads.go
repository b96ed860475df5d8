package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/multiwafer"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/workload"
)

// workloadDef is one set of inputs the benchmark runs. Why each exists is
// in BENCHMARK.json and bench/README.md.
type workloadDef struct {
	name string
	// tail is the percentile op_tail_ms reports: the highest with at
	// least ten ops beyond it in a default-length run on a 2-core host.
	tail  float64
	setup func(cfg *config) (runner, error)
}

// runner is a workload after set-up.
type runner interface {
	// measure applies the workload's load for d and times every op,
	// running the host probe in quiet moments between ops.
	measure(d time.Duration, tr *tracer, hp *hostProbe) phase
	// close releases what set-up built.
	close()
}

var workloads = []*workloadDef{
	{name: "paper-all", tail: 70, setup: setupPaperAll},
	{name: "scaleout-fill", tail: 90, setup: setupScaleout},
	{name: "observed-train", tail: 90, setup: setupObserved},
	{name: "fredd-mixed", tail: 99, setup: setupFredd},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// errWrong marks an op whose output differed from its reference, as
// opposed to one that failed to run.
var errWrong = errors.New("wrong output")

// phase is what one measurement window saw.
type phase struct {
	lat       []float64 // seconds per timed op; +Inf for a failed op
	attempted int
	failed    int
	wrong     int
	errs      []error // the first few failures
	opsPerSec float64 // closed-loop throughput
}

func (p *phase) fail(err error) {
	p.failed++
	if errors.Is(err, errWrong) {
		p.wrong++
	}
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err)
	}
}

// merge folds another window's ops and failures into p.
func (p *phase) merge(o phase) {
	p.lat = append(p.lat, o.lat...)
	p.attempted += o.attempted
	p.failed += o.failed
	p.wrong += o.wrong
	p.errs = append(p.errs, o.errs...)
}

// passLoop runs pass back to back for d — a closed loop with one
// caller — and times each pass. The host probe runs after each pass,
// outside the timing.
func passLoop(d time.Duration, tr *tracer, hp *hostProbe, pass func(op int64, parent int) error) phase {
	var ph phase
	busy := 0.0
	start := time.Now()
	for op := int64(0); time.Since(start) < d; op++ {
		id := tr.begin("pass", -1, op)
		t0 := time.Now()
		err := pass(op, id)
		el := time.Since(t0).Seconds()
		tr.end(id)
		busy += el
		ph.attempted++
		if err != nil {
			ph.fail(err)
			el = math.Inf(1)
		}
		ph.lat = append(ph.lat, el)
		hp.run()
	}
	ph.opsPerSec = float64(ph.attempted-ph.failed) / busy
	return ph
}

// ---- paper-all ----------------------------------------------------

// paperStudies is every study `fredsim all` runs, in its order, with
// the tables it prints.
var paperStudies = []struct {
	name string
	run  func(s *experiments.Session) []*report.Table
}{
	{"hw", func(*experiments.Session) []*report.Table { return experiments.HWTables() }},
	{"fig1", func(*experiments.Session) []*report.Table {
		return tables(experiments.Figure1(parallelism.Strategy{MP: 4, DP: 3, PP: 2}))
	}},
	{"meshio", func(s *experiments.Session) []*report.Table { _, t := s.MeshIOStudy(); return tables(t) }},
	{"placement", func(s *experiments.Session) []*report.Table { _, t := s.PlacementStudy(); return tables(t) }},
	{"nonaligned", func(s *experiments.Session) []*report.Table { _, t := s.NonAlignedStudy(); return tables(t) }},
	{"fig2", func(s *experiments.Session) []*report.Table { _, t := s.Figure2(); return tables(t) }},
	{"fig9", func(s *experiments.Session) []*report.Table { _, t := s.Figure9(); return tables(t) }},
	{"fig10", func(s *experiments.Session) []*report.Table { _, t := s.Figure10(false); return tables(t) }},
	{"fig11a", func(s *experiments.Session) []*report.Table { _, t := s.Figure11a(); return tables(t) }},
	{"fig11b", func(s *experiments.Session) []*report.Table { _, t := s.Figure11b(); return tables(t) }},
	{"scaling", func(s *experiments.Session) []*report.Table { _, t := s.ScalabilityStudy(); return tables(t) }},
	{"scaleout", func(s *experiments.Session) []*report.Table { _, t := s.ScaleOutStudy(); return tables(t) }},
	{"inference", func(s *experiments.Session) []*report.Table { _, t := s.InferenceStudy(); return tables(t) }},
	{"crossover", func(s *experiments.Session) []*report.Table { _, t := s.CrossoverStudy(); return tables(t) }},
	{"batch", func(s *experiments.Session) []*report.Table { _, t := s.BatchSensitivity(); return tables(t) }},
	{"profile", func(s *experiments.Session) []*report.Table {
		return tables(s.CommProfile(experiments.Baseline), s.CommProfile(experiments.FredD))
	}},
	{"packets", func(s *experiments.Session) []*report.Table { _, t := s.PacketValidation(); return tables(t) }},
	{"heat", func(s *experiments.Session) []*report.Table {
		_, t := s.TrainingHeatmap(parallelism.Strategy{MP: 3, DP: 3, PP: 2})
		return tables(t)
	}},
	{"ablations", func(s *experiments.Session) []*report.Table {
		_, t1 := s.MiddleStageAblation()
		_, t2 := s.RingDirectionAblation()
		_, t3 := s.GradBucketAblation()
		_, t4 := s.BisectionSweep()
		_, t5 := s.MultiWaferStudy()
		_, t6 := s.PlacementSearchAblation()
		_, t7 := s.ScheduleAblation()
		return tables(t1, t2, t3, t4, t5, t6, t7)
	}},
	{"ep", func(s *experiments.Session) []*report.Table { _, t := s.EPStudy(); return tables(t) }},
	{"faults", func(s *experiments.Session) []*report.Table { _, t := s.FaultSweep(); return tables(t) }},
	{"summary", func(s *experiments.Session) []*report.Table { _, t := s.Summary(); return tables(t) }},
}

func tables(t ...*report.Table) []*report.Table { return t }

// paperAllPin is the SHA-256 of `fredsim all -csv`, the same at every
// -parallel width.
//
//go:embed testdata/paper-all.sha256
var paperAllPin string

type paperAll struct{}

func setupPaperAll(*config) (runner, error) {
	if _, err := paperPass(nproc, true, nil, -1, 0); err != nil {
		return nil, err
	}
	return paperAll{}, nil
}

func (paperAll) measure(d time.Duration, tr *tracer, hp *hostProbe) phase {
	return passLoop(d, tr, hp, func(op int64, parent int) error {
		_, err := paperPass(nproc, true, tr, parent, op)
		return err
	})
}

func (paperAll) close() {}

// paperPass runs every study of `fredsim all` on a fresh session,
// checks that the CSV tables hash to the pinned value, and returns
// each study's wall-clock seconds.
func paperPass(parallel int, shareSchedules bool, tr *tracer, parent int, op int64) ([]float64, error) {
	sess := experiments.NewSession()
	sess.SetParallel(parallel)
	sess.ShareSchedules(shareSchedules)
	h := sha256.New()
	secs := make([]float64, len(paperStudies))
	for i, st := range paperStudies {
		id := tr.begin("study."+st.name, parent, op)
		t0 := time.Now()
		out := st.run(sess)
		secs[i] = time.Since(t0).Seconds()
		tr.end(id)
		for _, t := range out {
			io.WriteString(h, t.CSV())
			io.WriteString(h, "\n")
		}
	}
	if err := sess.Err(); err != nil {
		return nil, err
	}
	want := strings.Fields(paperAllPin)[0]
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		return nil, fmt.Errorf("%w: paper-all CSV hashes to %s, want %s", errWrong, got, want)
	}
	return secs, nil
}

// ---- scaleout-fill -------------------------------------------------

// scaleoutDims are the six ScaleOutStudy sizes, 2 wafers up to 8×8.
var scaleoutDims = [][]int{nil, {4}, {4, 2}, {4, 4}, {8, 4}, {8, 8}}

// scaleoutReps is how many times one pass runs the six sizes: enough
// for a pass to outlast timer and scheduling noise, few enough for a
// default run to time over a hundred passes.
const scaleoutReps = 2

type scaleout struct{ ref []experiments.ScaleOutRow }

func setupScaleout(*config) (runner, error) {
	sess := experiments.NewSession()
	rows, _ := sess.ScaleOutStudy()
	if err := sess.Err(); err != nil {
		return nil, err
	}
	s := &scaleout{ref: rows}
	if _, err := s.pass(nproc, 1, nil, -1, 0); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *scaleout) measure(d time.Duration, tr *tracer, hp *hostProbe) phase {
	return passLoop(d, tr, hp, func(op int64, parent int) error {
		_, err := s.pass(nproc, scaleoutReps, tr, parent, op)
		return err
	})
}

func (*scaleout) close() {}

// scaleoutWork is the deterministic work one pass did.
type scaleoutWork struct {
	events uint64           // scheduler events fired
	fill   netsim.FillStats // of the hierarchical all-reduces, summed
}

// pass runs every size reps times at the given fill-pool width and
// checks each against the ScaleOutStudy row.
func (s *scaleout) pass(fillWorkers, reps int, tr *tracer, parent int, op int64) (scaleoutWork, error) {
	var work scaleoutWork
	for r := 0; r < reps; r++ {
		for i, dims := range scaleoutDims {
			row, events := scaleoutRun(dims, fillWorkers, tr, parent, op)
			want := s.ref[i]
			if row.NPUs != want.NPUs || row.Links != want.Links || row.Hier != want.Hier ||
				row.Naive != want.Naive || row.FillWork != want.FillWork {
				return work, fmt.Errorf("%w: scaleout %v: got %+v, want %+v", errWrong, dims, row, want)
			}
			work.events += events
			f, sum := row.FillWork, &work.fill
			sum.Recomputes += f.Recomputes
			sum.FillPasses += f.FillPasses
			sum.DomainsFilled += f.DomainsFilled
			sum.ComponentsFilled += f.ComponentsFilled
			sum.FlowsFilled += f.FlowsFilled
		}
	}
	return work, nil
}

// scaleoutRun builds and runs one size the way ScaleOutStudy does —
// the hierarchical global all-reduce, then the naive leader exchange on
// a second system — and returns the study row and the events fired.
func scaleoutRun(dims []int, fillWorkers int, tr *tracer, parent int, op int64) (experiments.ScaleOutRow, uint64) {
	cfg := scaleoutConfig(dims, fillWorkers)
	runOne := func(naive bool) (*multiwafer.System, float64) {
		id := tr.begin("multiwafer.New", parent, op)
		sys := multiwafer.New(cfg)
		tr.end(id)
		name, compile := "multiwafer.GlobalAllReduce", sys.GlobalAllReduce
		if naive {
			name, compile = "multiwafer.NaiveAllReduce", sys.NaiveAllReduce
		}
		id = tr.begin(name, parent, op)
		sched := compile(10e9)
		tr.end(id)
		id = tr.begin("multiwafer.Run", parent, op)
		t := sys.Run(sched)
		tr.end(id)
		sys.Close()
		return sys, t
	}
	sh, hier := runOne(false)
	sn, naive := runOne(true)
	row := experiments.ScaleOutRow{
		NPUs:     sh.NPUCount(),
		Wafers:   cfg.Wafers,
		Dims:     sh.Dims(),
		Links:    sh.Network().NumLinks(),
		Hier:     hier,
		Naive:    naive,
		Gain:     naive / hier,
		FillWork: sh.Network().FillStats(),
	}
	return row, sh.Network().Scheduler().Fired() + sn.Network().Scheduler().Fired()
}

// scaleoutConfig is ScaleOutStudy's system for one size: Fred-D wafers
// in the given grid (nil is the paper's 2-wafer ring).
func scaleoutConfig(dims []int, fillWorkers int) multiwafer.Config {
	cfg := multiwafer.DefaultConfig()
	cfg.Wafers = 2
	if dims != nil {
		cfg.Wafers = 1
		for _, d := range dims {
			cfg.Wafers *= d
		}
	}
	cfg.Dims = dims
	cfg.FillWorkers = fillWorkers
	return cfg
}

// ---- observed-train ------------------------------------------------

// trainCell is one training configuration of the observed-train pool.
type trainCell struct {
	model *workload.Model
	sys   experiments.System
	strat parallelism.Strategy
	batch int
	total float64 // the observers-off iteration time made at set-up

	digest [sha256.Size]byte // artifacts of the cell's first observed run
	seen   bool
}

// observed runs training cells with every observer on. The pool holds
// every model × system × 20-worker strategy, each with a minibatch the
// seed draws. Pass j runs one cell of each model × system pair; each
// pair walks its strategies in an order the seed shuffles afresh every
// cycle, so every run covers the pool evenly and its pass times do not
// hinge on which cells one seed happened to draw.
type observed struct {
	rng    *rand.Rand
	cells  []trainCell
	strats int
	next   int   // the next pass index
	order  []int // this cycle's strategy order per pair, flattened
}

// observedBatches are the minibatch sizes the paper uses (Figures 9–10
// and Figures 2, 11).
var observedBatches = []int{16, 40}

func setupObserved(cfg *config) (runner, error) {
	strats := parallelism.EnumerateExact(20)
	o := &observed{rng: rand.New(rand.NewSource(cfg.seed)), strats: len(strats)}
	for _, m := range workload.Models() {
		for _, sys := range experiments.Systems() {
			for _, st := range strats {
				o.cells = append(o.cells, trainCell{model: m, sys: sys, strat: st, batch: observedBatches[o.rng.Intn(len(observedBatches))]})
			}
		}
	}
	err := forEachParallel(len(o.cells), func(i int) error {
		c := &o.cells[i]
		r, err := experiments.NewSession().RunTraining(c.sys, c.model, c.strat, c.batch)
		if err != nil {
			return fmt.Errorf("%s %v on %s: %w", c.model.Name, c.strat, c.sys, err)
		}
		c.total = r.Total
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The warm-up pass also records the artifact digests of its cells.
	if err := o.pass(nil, -1, 0); err != nil {
		return nil, err
	}
	return o, nil
}

func (o *observed) measure(d time.Duration, tr *tracer, hp *hostProbe) phase {
	return passLoop(d, tr, hp, func(op int64, parent int) error { return o.pass(tr, parent, op) })
}

func (*observed) close() {}

// passCells returns the pool indices pass j runs.
func (o *observed) passCells(j int) []int {
	pairs := len(o.cells) / o.strats
	if j%o.strats == 0 {
		o.order = o.order[:0]
		for p := 0; p < pairs; p++ {
			o.order = append(o.order, o.rng.Perm(o.strats)...)
		}
	}
	out := make([]int, pairs)
	for p := range out {
		out[p] = p*o.strats + o.order[p*o.strats+j%o.strats]
	}
	return out
}

// pass runs one cell of every pair on nproc goroutines, each cell on its
// own observed session, and checks every result.
func (o *observed) pass(tr *tracer, parent int, op int64) error {
	idx := o.passCells(o.next)
	o.next++
	digests := make([][sha256.Size]byte, len(idx))
	err := forEachParallel(len(idx), func(k int) error {
		var err error
		digests[k], err = runObservedCell(&o.cells[idx[k]], tr, parent, op)
		return err
	})
	if err != nil {
		return err
	}
	for k, i := range idx {
		c := &o.cells[i]
		if !c.seen {
			c.digest, c.seen = digests[k], true
		} else if digests[k] != c.digest {
			return fmt.Errorf("%w: %s %v on %s: artifacts changed between runs", errWrong, c.model.Name, c.strat, c.sys)
		}
	}
	return nil
}

// runObservedCell runs one training iteration with metrics, critical
// path, time series and link statistics on, exports and encodes the
// three artifacts and the hotspot tables, and returns their digest.
func runObservedCell(c *trainCell, tr *tracer, parent int, op int64) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	sess := experiments.NewSession()
	sess.SetParallel(1)
	sess.CollectMetrics(true)
	sess.CollectCritPath(true)
	sess.CollectTimeseries(true)
	sess.CollectLinkStats(true)
	id := tr.begin("experiments.RunTraining", parent, op)
	r, err := sess.RunTraining(c.sys, c.model, c.strat, c.batch)
	tr.end(id)
	if err != nil {
		return sum, err
	}
	if r.Total != c.total {
		return sum, fmt.Errorf("%w: %s %v on %s: observed total %g, observers-off %g", errWrong, c.model.Name, c.strat, c.sys, r.Total, c.total)
	}
	man := metrics.Manifest{
		Tool:            "fredbench",
		Command:         "observed-train",
		Workload:        c.model.Name,
		System:          string(c.sys),
		Strategy:        c.strat.String(),
		BatchPerReplica: c.batch,
	}
	h := sha256.New()
	if _, err := exportArtifacts(sess, man, h, tr, parent, op); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// exportArtifacts encodes the session's metrics, critical-path and
// time-series artifacts and its hotspot tables into w, and returns how
// many bytes they took.
func exportArtifacts(sess *experiments.Session, man metrics.Manifest, w io.Writer, tr *tracer, parent int, op int64) (int, error) {
	n := 0
	for _, a := range []struct {
		span   string
		encode func() ([]byte, error)
	}{
		{"export.metrics", func() ([]byte, error) { return sess.Metrics().Export(man).Encode() }},
		{"export.critpath", func() ([]byte, error) { return critpath.Export(man, sess.CritPathCells()).Encode() }},
		{"export.timeseries", func() ([]byte, error) { return timeseries.Export(man, sess.TimeseriesCells()).Encode() }},
		{"export.linkstats", func() ([]byte, error) {
			var b strings.Builder
			for _, t := range sess.LinkStatsTables() {
				b.WriteString(t.CSV())
			}
			return []byte(b.String()), nil
		}},
	} {
		id := tr.begin(a.span, parent, op)
		data, err := a.encode()
		tr.end(id)
		if err != nil {
			return n, fmt.Errorf("%s: %w", a.span, err)
		}
		w.Write(data)
		n += len(data)
	}
	return n, nil
}

// forEachParallel calls fn(i) for i in [0, n) on up to nproc goroutines
// and returns the failures joined.
func forEachParallel(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(nproc, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}
