package serve

import (
	"context"
	"fmt"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/faults"
	"github.com/wafernet/fred/internal/jsonw"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/netobs"
	"github.com/wafernet/fred/internal/obs"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/workload"
)

// Study kinds accepted by the daemon. The hazard kinds exist for
// chaos testing the server itself — a poison job panics mid-run, a
// spin job never terminates on its own — and are rejected unless the
// server was started with hazards enabled.
const (
	KindTraining  = "training"
	KindAllReduce = "allreduce"
	KindPoison    = "poison" // hazard: panics inside the simulation
	KindSpin      = "spin"   // hazard: runaway event loop, only a deadline stops it
)

// ResultSchema versions the study-result body.
const ResultSchema = "fred-study/v1"

// FaultSpec seeds a replayable fault plan into an allreduce study:
// RandomPlan(Seed, …) over the built fabric's links, applied while the
// collective is in flight. Identical specs produce identical plans, so
// faulted studies cache exactly like healthy ones.
type FaultSpec struct {
	Seed      int64   `json:"seed"`
	LinkFails int     `json:"link_fails,omitempty"`
	Degrades  int     `json:"degrades,omitempty"`
	HorizonS  float64 `json:"horizon_s,omitempty"`
}

// canonical renders the spec into the manifest command string — every
// field that shapes the plan, nothing else.
func (f *FaultSpec) canonical() string {
	return fmt.Sprintf("seed:%d,links:%d,degrades:%d,horizon:%g",
		f.Seed, f.LinkFails, f.Degrades, f.HorizonS)
}

// StudyRequest is one simulation submission: what to simulate
// (topology system, workload or collective payload, fault plan, seed)
// plus execution-only controls (idempotency key, deadline) that never
// enter the cache key.
type StudyRequest struct {
	// IdempotencyKey, when set, pins this submission to its config:
	// re-submitting the same key returns the same body, and reusing
	// the key with a different config is rejected with 409.
	IdempotencyKey string `json:"idempotency_key,omitempty"`

	// Kind selects the study: "training" (one 3D-parallel training
	// iteration), "allreduce" (wafer-wide collective, optionally under
	// faults), or the hazard kinds "poison"/"spin".
	Kind string `json:"kind"`
	// System is the Table 5 fabric ("Baseline", "Fred-A".."Fred-D");
	// empty selects Fred-D.
	System string `json:"system,omitempty"`

	// Training studies.
	Workload string `json:"workload,omitempty"` // resnet152, t17b, gpt3, t1t
	MP       int    `json:"mp,omitempty"`       // 0 = Table 6 default
	DP       int    `json:"dp,omitempty"`
	PP       int    `json:"pp,omitempty"`
	Batch    int    `json:"batch,omitempty"` // per-replica minibatch, 0 = 16

	// AllReduce studies.
	Bytes float64 `json:"bytes,omitempty"` // payload, 0 = 1 MiB
	Iters int     `json:"iters,omitempty"` // repetitions, 0 = 1

	// Seed distinguishes otherwise-identical studies (it enters the
	// cache key) and seeds the hazard kinds.
	Seed int64 `json:"seed,omitempty"`
	// Faults optionally injects a seeded fault plan (allreduce only).
	Faults *FaultSpec `json:"faults,omitempty"`

	// DeadlineMS bounds the job's wall-clock time from admission —
	// queue wait included. 0 selects the server default; the server
	// clamps to its maximum either way. Execution-only: not in the
	// cache key.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// lookupModel resolves the workload names fredtrain accepts.
func lookupModel(name string) (*workload.Model, error) {
	switch name {
	case "resnet152", "resnet":
		return workload.ResNet152(), nil
	case "t17b", "transformer17b":
		return workload.Transformer17B(), nil
	case "gpt3":
		return workload.GPT3(), nil
	case "t1t", "transformer1t":
		return workload.Transformer1T(), nil
	}
	return nil, fmt.Errorf("unknown workload %q (resnet152, t17b, gpt3, t1t)", name)
}

// lookupSystem validates a Table 5 system name.
func lookupSystem(name string) (experiments.System, error) {
	for _, sys := range experiments.Systems() {
		if string(sys) == name {
			return sys, nil
		}
	}
	return "", fmt.Errorf("unknown system %q (Baseline, Fred-A, Fred-B, Fred-C, Fred-D)", name)
}

// strategy resolves the request's 3D strategy (training only): the
// model's Table 6 default unless all three dimensions are given.
func (r *StudyRequest) strategy(m *workload.Model) parallelism.Strategy {
	if r.MP > 0 && r.DP > 0 && r.PP > 0 {
		return parallelism.Strategy{MP: r.MP, DP: r.DP, PP: r.PP}
	}
	return parallelism.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP}
}

// Request size bounds: a hostile or buggy client must not be able to
// submit unbounded simulated work through a single request.
const (
	maxBytes = float64(8 << 30) // 8 GiB collective payload
	maxIters = 10000
	maxBatch = 1024
)

// Normalize validates the request, fills defaults in place, and
// reports whether it is admissible. hazards gates the chaos kinds.
func (r *StudyRequest) Normalize(hazards bool) error {
	if r.System == "" {
		r.System = string(experiments.FredD)
	}
	if _, err := lookupSystem(r.System); err != nil {
		return err
	}
	switch r.Kind {
	case KindTraining:
		if r.Workload == "" {
			r.Workload = "t17b"
		}
		m, err := lookupModel(r.Workload)
		if err != nil {
			return err
		}
		if r.Batch == 0 {
			r.Batch = 16
		}
		if r.Batch < 0 || r.Batch > maxBatch {
			return fmt.Errorf("batch %d out of range [1, %d]", r.Batch, maxBatch)
		}
		if !r.strategy(m).Valid() {
			return fmt.Errorf("invalid strategy MP(%d)-DP(%d)-PP(%d)", r.MP, r.DP, r.PP)
		}
		if r.Faults != nil {
			return fmt.Errorf("fault plans are supported for allreduce studies only")
		}
	case KindAllReduce:
		if r.Bytes == 0 {
			r.Bytes = 1 << 20
		}
		if r.Bytes < 1 || r.Bytes > maxBytes {
			return fmt.Errorf("bytes %g out of range [1, %g]", r.Bytes, maxBytes)
		}
		if r.Iters == 0 {
			r.Iters = 1
		}
		if r.Iters < 0 || r.Iters > maxIters {
			return fmt.Errorf("iters %d out of range [1, %d]", r.Iters, maxIters)
		}
		if f := r.Faults; f != nil {
			if f.LinkFails < 0 || f.Degrades < 0 || f.LinkFails+f.Degrades > 64 {
				return fmt.Errorf("fault plan too large (≤64 events)")
			}
			if f.HorizonS == 0 {
				f.HorizonS = 1e-3
			}
			if f.HorizonS < 0 {
				return fmt.Errorf("negative fault horizon %g", f.HorizonS)
			}
		}
	case KindPoison, KindSpin:
		if !hazards {
			return fmt.Errorf("hazard kind %q requires the server to run with hazards enabled", r.Kind)
		}
	case "":
		return fmt.Errorf("missing study kind")
	default:
		return fmt.Errorf("unknown study kind %q", r.Kind)
	}
	if r.DeadlineMS < 0 {
		return fmt.Errorf("negative deadline_ms %d", r.DeadlineMS)
	}
	return nil
}

// Manifest renders the request as a PR 6 run manifest: every field
// that determines the simulation's outcome lands in an identity field
// or the canonical command string; execution-only knobs (deadline,
// idempotency key) do not. The manifest's config-hash — which also
// covers the engine revision — is the daemon's exact cache key:
// bit-identical determinism makes equal hashes equal artifacts.
func (r *StudyRequest) Manifest() metrics.Manifest {
	m := metrics.Manifest{
		Tool:    "fredd",
		Command: r.Kind,
		System:  r.System,
		Seed:    r.Seed,
	}
	switch r.Kind {
	case KindTraining:
		m.Workload = r.Workload
		if model, err := lookupModel(r.Workload); err == nil {
			m.Strategy = r.strategy(model).String()
		}
		m.BatchPerReplica = r.Batch
	case KindAllReduce:
		m.Command = fmt.Sprintf("%s bytes=%g iters=%d", r.Kind, r.Bytes, r.Iters)
		if r.Faults != nil {
			m.Command += " faults=" + r.Faults.canonical()
		}
	}
	return m
}

// Key returns the request's cache key: the manifest config-hash.
func (r *StudyRequest) Key() string { return r.Manifest().Hash() }

// StudySummary is the per-iteration breakdown carried in a training
// result (seconds of the critical replica's timeline).
type StudySummary struct {
	TotalS     float64 `json:"total_s"`
	ComputeS   float64 `json:"compute_s"`
	InputLoadS float64 `json:"input_load_s"`
	MPS        float64 `json:"mp_s"`
	DPS        float64 `json:"dp_s"`
	PPS        float64 `json:"pp_s"`
	StreamS    float64 `json:"stream_s"`
}

// StudyResult is the response body of a completed study. Everything
// in it is a pure function of the request and the engine revision —
// no wall-clock fields — so identical submissions produce
// byte-identical bodies whether simulated or served from cache.
type StudyResult struct {
	Schema     string `json:"schema"`
	ConfigHash string `json:"config_hash"`
	Kind       string `json:"kind"`
	System     string `json:"system"`
	Workload   string `json:"workload,omitempty"`
	Strategy   string `json:"strategy,omitempty"`
	// ElapsedSimS is the total simulated time: the training
	// iteration's end-to-end time, or the sum of the collective
	// iterations' elapsed times.
	ElapsedSimS float64 `json:"elapsed_sim_s"`
	// PerIterS lists each collective iteration's simulated elapsed
	// time (allreduce studies).
	PerIterS []float64 `json:"per_iter_s,omitempty"`
	// Summary is the training iteration's breakdown.
	Summary *StudySummary `json:"summary,omitempty"`
	// Metrics is the run's full fred-metrics/v1 artifact.
	Metrics *metrics.Artifact `json:"metrics,omitempty"`
}

// Encode renders the result deterministically as indented JSON with a
// trailing newline, in one pass (jsonw): the bytes
// json.MarshalIndent(res, "", "  ") would give. The metrics artifact is
// written in place, one level deep, straight from its struct. The body
// is exactly sized (cap == len), because the result cache keeps it.
func (res *StudyResult) Encode() ([]byte, error) { return jsonw.Encode(res.writeJSON) }

func (res *StudyResult) writeJSON(w *jsonw.Writer) {
	w.BeginObject()
	w.Key("schema").String(res.Schema)
	w.Key("config_hash").String(res.ConfigHash)
	w.Key("kind").String(res.Kind)
	w.Key("system").String(res.System)
	w.OmitString("workload", res.Workload)
	w.OmitString("strategy", res.Strategy)
	w.Key("elapsed_sim_s").Float(res.ElapsedSimS)
	if len(res.PerIterS) > 0 {
		w.Key("per_iter_s").BeginArray()
		for _, v := range res.PerIterS {
			w.Float(v)
		}
		w.EndArray()
	}
	if sum := res.Summary; sum != nil {
		w.Key("summary").BeginObject()
		w.Key("total_s").Float(sum.TotalS)
		w.Key("compute_s").Float(sum.ComputeS)
		w.Key("input_load_s").Float(sum.InputLoadS)
		w.Key("mp_s").Float(sum.MPS)
		w.Key("dp_s").Float(sum.DPS)
		w.Key("pp_s").Float(sum.PPS)
		w.Key("stream_s").Float(sum.StreamS)
		w.EndObject()
	}
	if res.Metrics != nil {
		w.Key("metrics")
		res.Metrics.WriteJSON(w)
	}
	w.EndObject()
}

// runStudy executes one normalized study under ctx. The session it
// builds binds ctx into every scheduler, so an expired deadline
// surfaces as an error matching sim.ErrCanceled rather than a hung
// worker. tok, when non-nil, receives the simulation's clock for the
// live /progress view.
func runStudy(ctx context.Context, req *StudyRequest, tok *obs.Cell) (*StudyResult, error) {
	switch req.Kind {
	case KindPoison:
		// A chaos job: the panic happens here, inside the study, and
		// must be contained by the worker's recovery — the blast
		// radius of one bad job is that job alone.
		panic(fmt.Sprintf("poison study: injected panic (seed %d)", req.Seed))
	case KindSpin:
		return runSpin(ctx)
	}

	sess := experiments.NewSession()
	sess.SetParallel(1)
	sess.SetContext(ctx)
	sess.ObserveCell(tok)
	sess.CollectMetrics(true)
	sys, err := lookupSystem(req.System)
	if err != nil {
		return nil, err
	}

	res := &StudyResult{
		Schema:     ResultSchema,
		ConfigHash: req.Manifest().Stamp().ConfigHash,
		Kind:       req.Kind,
		System:     req.System,
	}
	switch req.Kind {
	case KindTraining:
		model, err := lookupModel(req.Workload)
		if err != nil {
			return nil, err
		}
		strat := req.strategy(model)
		r, err := sess.RunTraining(sys, model, strat, req.Batch)
		if err != nil {
			return nil, err
		}
		res.Workload = model.Name
		res.Strategy = strat.String()
		res.ElapsedSimS = r.Total
		res.Summary = &StudySummary{
			TotalS:     r.Total,
			ComputeS:   r.Breakdown.Compute,
			InputLoadS: r.Breakdown.InputLoad,
			MPS:        r.Breakdown.MP,
			DPS:        r.Breakdown.DP,
			PPS:        r.Breakdown.PP,
			StreamS:    r.Breakdown.Stream,
		}
	case KindAllReduce:
		if err := runAllReduce(sess, sys, req, res); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown study kind %q", req.Kind)
	}

	res.Metrics = sess.Metrics().Export(req.Manifest())
	return res, nil
}

// runAllReduce simulates the collective study: a wafer-wide
// all-reduce repeated Iters times on one fabric instance, with an
// optional seeded fault plan landing while traffic is in flight.
func runAllReduce(sess *experiments.Session, sys experiments.System, req *StudyRequest, res *StudyResult) error {
	w := sess.Build(sys)
	net := w.Network()
	if f := req.Faults; f != nil {
		plan := faults.RandomPlan(f.Seed, faults.PlanSpec{
			Links:     net.NumLinks(),
			LinkFails: f.LinkFails,
			Degrades:  f.Degrades,
			Horizon:   f.HorizonS,
		})
		inj := faults.NewInjector(net).SetMetrics(netobs.Registry(net))
		if err := inj.Schedule(plan); err != nil {
			return fmt.Errorf("scheduling fault plan: %w", err)
		}
	}
	group := make([]int, w.NPUCount())
	for i := range group {
		group[i] = i
	}
	comm := collective.NewComm(w)
	for i := 0; i < req.Iters; i++ {
		var sched collective.Schedule
		if req.Faults != nil {
			// Degraded-mode routing: after a link failure the mesh
			// needs its BFS detour tables rather than pristine X-Y.
			sched = comm.AllReduceDegraded(group, req.Bytes)
		} else {
			sched = comm.AllReduce(group, req.Bytes)
		}
		elapsed, err := collective.RunToCompletionErr(net, sched)
		if err != nil {
			return err
		}
		res.PerIterS = append(res.PerIterS, elapsed)
		res.ElapsedSimS += elapsed
	}
	net.EndRun()
	return nil
}

// runSpin is the runaway-cell hazard: a self-perpetuating event chain
// that only the scheduler's bound context can stop. It exists to prove
// the deadline path end to end — without cooperative cancellation this
// job would pin a worker forever.
func runSpin(ctx context.Context) (*StudyResult, error) {
	sched := sim.NewScheduler()
	sched.BindContext(ctx, 1024)
	var tick func()
	tick = func() { sched.After(1e-9, tick) }
	sched.After(0, tick)
	sched.Run()
	if err := sched.Err(); err != nil {
		return nil, err
	}
	return nil, fmt.Errorf("spin study drained its event queue — impossible")
}
