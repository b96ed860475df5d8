package main

import (
	"fmt"
	"io"
	"math"
	"time"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/multiwafer"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// ladder runs the layer probes every traced run reports. They are the
// same whatever the workload, so each layer metric means one thing
// everywhere; which end-to-end metric each should move is in
// bench/README.md.
func ladder(cfg *config) (map[string]float64, error) {
	reps, serveFor := 3, 4*time.Second
	if cfg.quick {
		reps, serveFor = 1, time.Second/2
	}
	v := map[string]float64{}
	for _, probe := range []func() error{
		func() error { return ladderExperiments(v, reps) },
		func() error { return ladderScaleout(v, reps) },
		func() error { return ladderCollective(v, reps) },
		func() error { return ladderTopology(v, reps) },
		func() error { return ladderTraining(v, reps) },
		func() error { return ladderServe(v, cfg.seed, serveFor) },
	} {
		if err := probe(); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func since(t0 time.Time) float64 { return time.Since(t0).Seconds() }

// ladderExperiments times paper-all passes in three session settings,
// alternated reps times: full width (with the per-study times), at
// -parallel 1, and with the cross-cell schedule cache off.
func ladderExperiments(v map[string]float64, reps int) error {
	var wide, narrow, unshared []float64
	studies := make([][]float64, len(paperStudies))
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		secs, err := paperPass(nproc, true, nil, -1, 0)
		if err != nil {
			return err
		}
		wide = append(wide, since(t0))
		for i, s := range secs {
			studies[i] = append(studies[i], s)
		}
		t0 = time.Now()
		if _, err := paperPass(1, true, nil, -1, 0); err != nil {
			return err
		}
		narrow = append(narrow, since(t0))
		t0 = time.Now()
		if _, err := paperPass(nproc, false, nil, -1, 0); err != nil {
			return err
		}
		unshared = append(unshared, since(t0))
	}
	v["experiments.parallel_speedup"] = median(narrow) / median(wide)
	v["experiments.schedcache_speedup"] = median(unshared) / median(wide)
	for i, st := range paperStudies {
		v["study."+st.name+"_s"] = median(studies[i])
	}
	return nil
}

// ladderScaleout runs the six scale-out sizes once per pass, at fill
// width nproc and 1, and the 8×8 system alone.
func ladderScaleout(v map[string]float64, reps int) error {
	sess := experiments.NewSession()
	rows, _ := sess.ScaleOutStudy()
	if err := sess.Err(); err != nil {
		return err
	}
	s := &scaleout{ref: rows}
	var wide, narrow []float64
	var work scaleoutWork
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		w, err := s.pass(nproc, 1, nil, -1, 0)
		if err != nil {
			return err
		}
		wide = append(wide, since(t0))
		work = w
		t0 = time.Now()
		if _, err := s.pass(1, 1, nil, -1, 0); err != nil {
			return err
		}
		narrow = append(narrow, since(t0))
	}
	f := work.fill
	v["sim.events_per_pass"] = float64(work.events)
	v["sim.ns_per_event"] = 1e9 * median(wide) / float64(work.events)
	v["netsim.recomputes_per_pass"] = float64(f.Recomputes)
	v["netsim.fill_passes_per_pass"] = float64(f.FillPasses)
	v["netsim.lazy_skip_ratio"] = 1 - float64(f.FillPasses)/float64(f.Recomputes)
	v["netsim.domains_filled_per_pass"] = float64(f.DomainsFilled)
	v["netsim.flows_filled_per_pass"] = float64(f.FlowsFilled)
	v["netsim.fill_pool_speedup"] = median(narrow) / median(wide)

	var build, run []float64
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		sys := multiwafer.New(scaleoutConfig([]int{8, 8}, nproc))
		build = append(build, since(t0))
		t0 = time.Now()
		sys.Run(sys.GlobalAllReduce(10e9))
		run = append(run, since(t0))
		sys.Close()
	}
	v["multiwafer.build_ms"] = 1e3 * median(build)
	v["multiwafer.run_ms"] = 1e3 * median(run)
	return nil
}

// ladderCollective compiles a 1 MiB wafer-wide all-reduce on a fresh
// wafer of each system (cold), again on the same compiler (warm, a
// memo hit), and replays it; each metric is the median over systems.
func ladderCollective(v map[string]float64, reps int) error {
	const payload, warmCalls = 1 << 20, 1000
	var cold, warm, replay []float64
	for _, sys := range experiments.Systems() {
		var c, w, r []float64
		for k := 0; k < reps; k++ {
			wafer := experiments.NewSession().Build(sys)
			group := allNPUs(wafer)
			comm := collective.NewComm(wafer)
			t0 := time.Now()
			sched := comm.AllReduce(group, payload)
			c = append(c, since(t0))
			t0 = time.Now()
			for i := 0; i < warmCalls; i++ {
				comm.AllReduce(group, payload)
			}
			w = append(w, since(t0)/warmCalls)
			t0 = time.Now()
			if _, err := collective.RunToCompletionErr(wafer.Network(), sched); err != nil {
				return fmt.Errorf("replaying allreduce on %s: %w", sys, err)
			}
			r = append(r, since(t0))
		}
		cold, warm, replay = append(cold, median(c)), append(warm, median(w)), append(replay, median(r))
	}
	v["collective.compile_cold_us"] = 1e6 * median(cold)
	v["collective.compile_warm_ns"] = 1e9 * median(warm)
	v["collective.replay_us"] = 1e6 * median(replay)
	return nil
}

// ladderTopology times building a fresh mesh and a fresh Fred-D wafer.
func ladderTopology(v map[string]float64, reps int) error {
	sess := experiments.NewSession()
	for _, p := range []struct {
		name string
		sys  experiments.System
	}{{"topology.build_mesh_us", experiments.Baseline}, {"topology.build_fred_us", experiments.FredD}} {
		var t []float64
		for k := 0; k < 20*reps; k++ {
			t0 := time.Now()
			sess.Build(p.sys)
			t = append(t, since(t0))
		}
		v[p.name] = 1e6 * median(t)
	}
	return nil
}

// ladderCell is one training configuration of the ladder.
type ladderCell struct {
	key   string
	model *workload.Model
	sys   experiments.System
}

// trainingLadder is every model on the baseline mesh and on Fred-D.
func trainingLadder() []ladderCell {
	var out []ladderCell
	for _, m := range freddModels {
		for _, s := range []struct {
			key string
			sys experiments.System
		}{{"baseline", experiments.Baseline}, {"fred_d", experiments.FredD}} {
			out = append(out, ladderCell{key: m.name + "_" + s.key, model: m.model(), sys: s.sys})
		}
	}
	return out
}

// ladderTraining times each ladder cell through Session.Build and
// training.Simulate, then runs the same cells with every observer off
// and on and exports the observed artifacts.
func ladderTraining(v map[string]float64, reps int) error {
	var off, on, export float64
	size := 0
	for _, c := range trainingLadder() {
		strat := parallelism.Strategy{MP: c.model.DefaultMP, DP: c.model.DefaultDP, PP: c.model.DefaultPP}
		var plain, bare, observed, exp []float64
		for k := 0; k < reps; k++ {
			t0 := time.Now()
			w := experiments.NewSession().Build(c.sys)
			if _, err := training.Simulate(training.Config{Wafer: w, Model: c.model, Strategy: strat, MinibatchPerReplica: 16}); err != nil {
				return fmt.Errorf("training %s: %w", c.key, err)
			}
			plain = append(plain, since(t0))

			t0 = time.Now()
			if _, err := experiments.NewSession().RunTraining(c.sys, c.model, strat, 16); err != nil {
				return fmt.Errorf("training %s: %w", c.key, err)
			}
			bare = append(bare, since(t0))

			sess := experiments.NewSession()
			sess.CollectMetrics(true)
			sess.CollectCritPath(true)
			sess.CollectTimeseries(true)
			sess.CollectLinkStats(true)
			t0 = time.Now()
			if _, err := sess.RunTraining(c.sys, c.model, strat, 16); err != nil {
				return fmt.Errorf("observed training %s: %w", c.key, err)
			}
			observed = append(observed, since(t0))
			t0 = time.Now()
			n, err := exportArtifacts(sess, metrics.Manifest{Tool: "fredbench", Command: "ladder " + c.key}, io.Discard, nil, -1, 0)
			if err != nil {
				return err
			}
			exp = append(exp, since(t0))
			if k == 0 {
				size += n
			}
		}
		v["training."+c.key+"_ms"] = 1e3 * median(plain)
		off += median(bare)
		on += median(observed)
		export += median(exp)
	}
	v["observe.overhead_ratio"] = on / off
	v["observe.export_ms"] = 1e3 * export
	v["observe.artifact_bytes"] = float64(size)
	return nil
}

// ladderServe runs the fredd-mixed open loop for d against a fresh
// server and reads the per-class client latencies and the server's own
// queue and job histograms.
func ladderServe(v map[string]float64, seed int64, d time.Duration) error {
	f, err := newFredd(seed)
	if err != nil {
		return err
	}
	recs := f.openLoop(d, nil, nil)
	scrape, err := f.scrape()
	f.close()
	if err != nil {
		return fmt.Errorf("scraping /metrics: %w", err)
	}
	byClass := make([][]float64, len(classNames))
	var all, late, size []float64
	for _, r := range recs {
		if r.err != nil {
			return fmt.Errorf("serve ladder request: %w", r.err)
		}
		byClass[r.class] = append(byClass[r.class], r.lat)
		all = append(all, r.lat)
		late = append(late, r.late)
		size = append(size, float64(r.bytes))
	}
	v["serve.hot_ms_p50"] = 1e3 * percentile(byClass[classHot], 50)
	v["serve.cold_allreduce_ms_p50"] = 1e3 * percentile(byClass[classColdAllReduce], 50)
	v["serve.cold_training_ms_p99"] = 1e3 * percentile(byClass[classColdTraining], 99)
	v["serve.req_p999_ms"] = 1e3 * percentile(all, 99.9)
	v["serve.late_p99_ms"] = 1e3 * percentile(late, 99)
	v["serve.body_bytes_p50"] = percentile(size, 50)

	art, err := metrics.Decode(scrape)
	if err != nil {
		return fmt.Errorf("decoding /metrics: %w", err)
	}
	series := map[string]*metrics.SeriesData{}
	for i := range art.Series {
		series[art.Series[i].Name] = &art.Series[i]
	}
	for _, name := range []string{"serve/queue_wait_ms", "serve/job_wall_ms", "serve/cache_hits", "serve/submitted"} {
		if series[name] == nil {
			return fmt.Errorf("/metrics has no %s series", name)
		}
	}
	v["serve.queue_wait_ms_p50"] = bucketQuantile(series["serve/queue_wait_ms"], 0.5)
	v["serve.queue_wait_ms_p99"] = bucketQuantile(series["serve/queue_wait_ms"], 0.99)
	v["serve.job_wall_ms_p50"] = bucketQuantile(series["serve/job_wall_ms"], 0.5)
	v["serve.cache_hit_ratio"] = series["serve/cache_hits"].Scalar() / series["serve/submitted"].Scalar()
	return nil
}

// bucketQuantile estimates a quantile of an exported histogram the way
// metrics.Series.Quantile does: the upper bound of the bucket where the
// cumulative weight crosses q, clamped to the observed range.
func bucketQuantile(s *metrics.SeriesData, q float64) float64 {
	total := 0.0
	for _, b := range s.Buckets {
		total += b.W
	}
	cum := 0.0
	for _, b := range s.Buckets {
		cum += b.W
		if cum >= q*total {
			if b.Overflow {
				return s.Max
			}
			return math.Max(s.Min, math.Min(b.LE, s.Max))
		}
	}
	return s.Max
}
