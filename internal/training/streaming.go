package training

import (
	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/workload"
)

// runStreaming executes one weight-streaming iteration
// (Section 3.1.2): layer groups of PP consecutive layers stream
// through the wafer. The model is loaded twice (forward, backward) via
// the I/O broadcast trees, gradients are reduced along DP inside the
// store trees as they stream out, and a double-buffered loader
// prefetches the next group while the current one computes. GPT-3's
// PP(2) pipelines two microbatches inside each group (Section 7.3).
func (e *engine) runStreaming() (*Report, error) {
	cfg := e.cfg
	s := cfg.Strategy
	w := cfg.Wafer
	model := cfg.Model
	L := len(model.Layers)
	G := (L + s.PP - 1) / s.PP
	M := cfg.Microbatches
	microbatch := float64(cfg.MinibatchPerReplica) / float64(M)
	nIOC := w.IOCCount()

	// groupStages[g][p] is the layer of pipeline stage p in group g.
	groupStages := make([][]workload.Layer, G)
	for g := 0; g < G; g++ {
		lo := g * s.PP
		hi := lo + s.PP
		if hi > L {
			hi = L
		}
		for i := lo; i < hi; i++ {
			groupStages[g] = append(groupStages[g], model.Layers[i])
		}
	}
	groupBytes := func(g int) float64 {
		total := 0.0
		for _, l := range groupStages[g] {
			total += l.Params * workload.FP16Bytes
		}
		return total
	}

	// Load order: forward group 0..G-1, then backward G-1..0.
	nLoads := 2 * G
	loadGroup := func(i int) int {
		if i < G {
			return i
		}
		return 2*G - 1 - i
	}
	loaded := make([]*signal, nLoads)
	computeDone := make([]*signal, nLoads)
	for i := range loaded {
		loaded[i] = &signal{}
		computeDone[i] = &signal{}
	}

	// The load and store trees span the wafer and every group pass
	// reuses them, so each is resolved once per fabric state.
	loadTrees := newPreparedRoutes(e.net, nIOC, w.IOCLoadTree)
	storeTrees := newPreparedRoutes(e.net, nIOC, w.IOCStoreTree)

	// Loader: sequential, at most two groups ahead of compute
	// (double buffering).
	var startLoad func(i int)
	startLoad = func(i int) {
		if i >= nLoads {
			return
		}
		begin := func() {
			bytes := groupBytes(loadGroup(i)) / float64(nIOC)
			remaining := nIOC
			for ioc := 0; ioc < nIOC; ioc++ {
				e.net.StartFlow(netsim.FlowSpec{
					Prepared: loadTrees.get(ioc),
					Bytes:    bytes,
					Latency:  -1,
					Label:    "weight-load",
					Done: func(f *netsim.Flow) {
						remaining--
						if remaining == 0 {
							loaded[i].fireFlow(f)
							startLoad(i + 1)
						}
					},
				})
			}
		}
		if i >= 2 {
			computeDone[i-2].wait(begin)
		} else {
			begin()
		}
	}

	// Gradient stream-out: reduced along DP inside the store trees;
	// the unique (post-reduction) gradient volume leaves once, striped
	// across the controllers.
	storesOutstanding := 0
	startStore := func(g int) {
		bytes := groupBytes(g) / float64(nIOC)
		for ioc := 0; ioc < nIOC; ioc++ {
			storesOutstanding++
			e.net.StartFlow(netsim.FlowSpec{
				Prepared: storeTrees.get(ioc),
				Bytes:    bytes,
				Latency:  -1,
				Label:    "grad-store",
				Done:     func(*netsim.Flow) { storesOutstanding-- },
			})
		}
	}

	// Critical-path process accounting.
	var compute float64
	var blocked [numClasses]float64
	var finished sim.Time
	start := e.sched.Now()
	// chain records the global critical execution chain (streaming
	// drives every NPU with the same wave timeline) when critpath
	// recording is on.
	chain := segRecorder{rec: e.crit}

	// stageGroups returns the placed NPU groups for MP collectives of
	// stage p: one group per DP replica.
	mpGroupsOf := func(p int) [][]int {
		var groups [][]int
		for dp := 0; dp < s.DP; dp++ {
			g := make([]int, s.MP)
			for mp := 0; mp < s.MP; mp++ {
				g[mp] = cfg.Placement[s.Rank(parallelism.Worker{MP: mp, DP: dp, PP: p})]
			}
			groups = append(groups, g)
		}
		return groups
	}

	// submitAll runs a set of schedules under one class and continues
	// when every one completes, charging the wait to the class.
	submitAll := func(class Class, scheds []collective.Schedule, cont func()) {
		t0 := e.sched.Now()
		n := len(scheds)
		if n == 0 {
			cont()
			return
		}
		done := 0
		for _, sc := range scheds {
			e.arb.submit(class, sc, func(op *collective.Op) {
				done++
				if done == n {
					now := e.sched.Now()
					blocked[class] += now - t0
					if e.crit != nil && now > t0 {
						// The last op to drain released the wave barrier:
						// blame the window by it.
						chain.opWait(class, opLabel(op, class.String()), t0, now, op)
					}
					cont()
				}
			})
		}
	}

	// runGroup executes the waves of one group pass (forward or
	// backward) and then continues.
	runGroup := func(g int, backward bool, cont func()) {
		stages := groupStages[g]
		nStages := len(stages)
		waves := M + nStages - 1
		factor := 1.0
		if backward {
			factor = 2
		}
		var wave func(k int)
		wave = func(k int) {
			if k == waves {
				cont()
				return
			}
			// Active stages this wave.
			var active []int
			maxCompute := 0.0
			for p := 0; p < nStages; p++ {
				ub := k - p
				if ub < 0 || ub >= M {
					continue
				}
				active = append(active, p)
				d := factor * e.computeSeconds(stages[p].FwdFLOPs*microbatch/float64(s.MP))
				if d > maxCompute {
					maxCompute = d
				}
			}
			compute += maxCompute
			if e.crit != nil && maxCompute > 0 {
				now := e.sched.Now()
				chain.compute("wave-compute", now, now+maxCompute)
			}
			e.sched.After(maxCompute, func() {
				// MP collectives of the active stages, all DP replicas.
				var mpScheds []collective.Schedule
				if s.MP > 1 {
					for _, p := range active {
						bytes := factor * float64(stages[p].MPAllReducesPerPass) * stages[p].ActivationBytes * microbatch
						if bytes <= 0 {
							continue
						}
						for _, grp := range mpGroupsOf(p) {
							mpScheds = append(mpScheds, e.comm.AllReduce(grp, bytes))
						}
					}
				}
				submitAll(ClassMP, mpScheds, func() {
					// Pipeline transfers between adjacent active stages.
					var ppScheds []collective.Schedule
					for _, p := range active {
						if p+1 >= nStages {
							continue
						}
						bytes := stages[p].ActivationBytes * microbatch
						for dp := 0; dp < s.DP; dp++ {
							src := cfg.Placement[s.Rank(parallelism.Worker{MP: 0, DP: dp, PP: p})]
							var dsts []int
							for mp := 0; mp < s.MP; mp++ {
								dsts = append(dsts, cfg.Placement[s.Rank(parallelism.Worker{MP: mp, DP: dp, PP: p + 1})])
							}
							ppScheds = append(ppScheds, e.comm.Multicast(src, dsts, bytes))
						}
					}
					submitAll(ClassPP, ppScheds, func() { wave(k + 1) })
				})
			})
		}
		wave(0)
	}

	// The critical-path chain: optional input load, forward sweep,
	// backward sweep with gradient stores.
	var fwdGroup func(g int)
	var bwdGroup func(g int)

	fwdGroup = func(g int) {
		t0 := e.sched.Now()
		loaded[g].wait(func() {
			now := e.sched.Now()
			blocked[ClassStream] += now - t0
			if e.crit != nil && now > t0 {
				chain.sigWait(ClassStream, "weight-load", t0, now, loaded[g])
			}
			runGroup(g, false, func() {
				computeDone[g].fire()
				if g+1 < G {
					fwdGroup(g + 1)
				} else {
					bwdGroup(G - 1)
				}
			})
		})
	}
	bwdGroup = func(g int) {
		idx := 2*G - 1 - g // load-order index of this backward group
		t0 := e.sched.Now()
		loaded[idx].wait(func() {
			now := e.sched.Now()
			blocked[ClassStream] += now - t0
			if e.crit != nil && now > t0 {
				chain.sigWait(ClassStream, "weight-load", t0, now, loaded[idx])
			}
			runGroup(g, true, func() {
				computeDone[idx].fire()
				startStore(g)
				if g > 0 {
					bwdGroup(g - 1)
				} else {
					finished = e.sched.Now()
				}
			})
		})
	}

	beginCompute := func() { fwdGroup(0) }

	if !model.InputPrefetchable {
		// Input minibatch load cannot hide behind busy controllers
		// (Transformer-1T, Section 8.2): block on it first.
		t0 := e.sched.Now()
		bytes := float64(cfg.Minibatch()) * model.SampleBytes / float64(w.NPUCount())
		remaining := w.NPUCount()
		for npu := 0; npu < w.NPUCount(); npu++ {
			ioc := w.NearestIOC(npu)
			e.net.StartFlow(netsim.FlowSpec{
				Links:   w.IOCToNPU(ioc, npu),
				Bytes:   bytes,
				Latency: -1,
				Label:   "input-load",
				Done: func(f *netsim.Flow) {
					remaining--
					if remaining == 0 {
						now := e.sched.Now()
						blocked[ClassLoad] += now - t0
						if e.crit != nil && now > t0 {
							chain.add(critpath.KindWait, ClassLoad.String(), "input-load",
								t0, now, critpath.ClampBlame(now-t0, f.ContentionStall(), f.FaultTime()),
								f.BindLinkName(), 0)
						}
						startLoad(0)
						beginCompute()
					}
				},
			})
		}
	} else {
		startLoad(0)
		beginCompute()
	}

	e.sched.Run()
	if err := e.sched.Err(); err != nil {
		// The bound context expired mid-iteration (BindContext): the
		// simulated state is mid-flight and the report would be bogus.
		return nil, err
	}
	end := e.sched.Now()

	br := Breakdown{
		Compute:   compute,
		InputLoad: blocked[ClassLoad],
		MP:        blocked[ClassMP],
		PP:        blocked[ClassPP],
		Stream:    blocked[ClassStream],
	}
	if tail := end - finished; tail > 0 {
		br.Stream += tail
	}
	total := end - start
	// Streaming drives every NPU with the same global wave timeline
	// (the whole wafer executes each layer group together), so the
	// per-NPU attribution is the critical-path account replicated over
	// the placed NPUs, with the store-drain tail charged to streaming.
	streamBlocked := blocked
	if tail := end - finished; tail > 0 {
		streamBlocked[ClassStream] += tail
	}
	var npus []NPUTime
	for rank := 0; rank < s.Workers(); rank++ {
		npus = append(npus, npuTime(cfg.Placement[rank], total, compute, streamBlocked, 0))
	}
	var critIt *critpath.Iteration
	if e.crit != nil {
		// The post-finish store drain is a serialized streaming tail.
		if tail := end - finished; tail > 0 {
			chain.add(critpath.KindWait, ClassStream.String(), "grad-store-drain",
				finished, end, critpath.Blame{Serial: tail}, "", 0)
		}
		critIt = e.buildIteration(total, chain.segs)
	}
	return &Report{
		Config:    cfg,
		Total:     total,
		Breakdown: br,
		PerSample: total / float64(cfg.Minibatch()),
		Comm:      e.stats.stats,
		NPUs:      sortNPUs(npus),
		CritPath:  critIt,
	}, nil
}

// preparedRoutes resolves a family of fixed routes, one per index, with
// netsim.PrepareRoute on first use and hands the prepared route to every
// later flow. A change of the network's fabric-state epoch (a link
// failed, degraded or restored) drops them, and they are prepared again
// against the new state, so each flow sees what StartFlow would resolve.
type preparedRoutes struct {
	net    *netsim.Network
	epoch  uint64
	route  func(i int) []netsim.LinkID
	cached []*netsim.PreparedRoute
}

func newPreparedRoutes(net *netsim.Network, n int, route func(i int) []netsim.LinkID) *preparedRoutes {
	return &preparedRoutes{net: net, epoch: net.StateEpoch(), route: route, cached: make([]*netsim.PreparedRoute, n)}
}

func (p *preparedRoutes) get(i int) *netsim.PreparedRoute {
	if ep := p.net.StateEpoch(); ep != p.epoch {
		p.epoch = ep
		clear(p.cached)
	}
	if p.cached[i] == nil {
		p.cached[i] = p.net.PrepareRoute(p.route(i))
	}
	return p.cached[i]
}
