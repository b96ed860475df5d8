package training

import (
	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/netobs"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/trace"
)

// executor replays an iteration graph on the wafer's scheduler. A node
// starts inside the completion callback of its last dependency: compute
// takes a scheduler delay, a collective submits its operations through
// the arbiter, and an I/O node starts its flows. Each timeline keeps
// its own account — compute, blocked time per class and the critpath
// chain — and the report attributes the iteration from those accounts.
type executor struct {
	cfg   *Config
	g     *graph
	sched *sim.Scheduler
	net   *netsim.Network
	comm  *collective.Comm
	arb   arbiter
	// crit is the network's critpath recorder (nil when critpath
	// recording is off); the timelines record their chains into it.
	crit *critpath.Recorder
	// tr, when the network has a tracer, gets one async "comm" span per
	// collective operation.
	tr    trace.Tracer
	stats CommStats
	opSeq uint64

	start sim.Time
	tls   []timeline
	state []nodeState

	// Tail blame: the aggregated blame of the tail class's operations,
	// which splits the post-finish drain, and the binding link of the
	// longest one.
	tailBlame  critpath.Blame
	tailMaxDur float64
	tailBind   string

	// The load and store trees span the wafer and every group pass
	// reuses them, so each is resolved once per fabric state.
	loadTrees, storeTrees *preparedRoutes
}

// timeline is one timeline's account.
type timeline struct {
	compute  float64
	blocked  [numClasses]float64
	arrived  sim.Time // when the chain reached its current node
	finished sim.Time // end of the chain
	segs     segRecorder
}

// nodeState is a node's progress in one replay.
type nodeState struct {
	pending int      // dependencies not yet complete
	left    int      // operations or flows still in flight
	start   sim.Time // launch time
	// What completed the node, for the blame of the waits it releases:
	// its last operation, or its last flow's contention and fault
	// integrals (and binding link, for a chain I/O node).
	op           *collective.Op
	stall, fault float64
	bind         string
}

func newExecutor(cfg *Config, g *graph) *executor {
	net := cfg.Wafer.Network()
	x := &executor{
		cfg:   cfg,
		g:     g,
		sched: net.Scheduler(),
		net:   net,
		comm:  collective.NewComm(cfg.Wafer),
		crit:  net.CritPath(),
		tr:    netobs.Tracer(net),
		stats: make(CommStats),
		tls:   make([]timeline, len(g.npus)),
		state: make([]nodeState, len(g.nodes)),
	}
	if cfg.Wafer.CircuitSwitched() {
		x.arb = newFredArbiter(net)
	} else {
		x.arb = meshArbiter{net: net}
	}
	return x
}

// run replays the graph to completion and reports the iteration.
func (x *executor) run() (*Report, error) {
	x.start = x.sched.Now()
	for i := range x.tls {
		x.tls[i].arrived = x.start
		x.tls[i].segs.rec = x.crit
	}
	for i := range x.g.nodes {
		x.state[i].pending = x.g.nodes[i].deps
	}
	for i := range x.g.nodes {
		if x.g.nodes[i].deps == 0 {
			x.launch(i, -1)
		}
	}
	x.sched.Run()
	if err := x.sched.Err(); err != nil {
		// The bound context expired mid-iteration (BindContext): the
		// simulated state is mid-flight and the report would be bogus.
		return nil, err
	}
	return x.report(), nil
}

// launch starts node i; by is the dependency whose completion released
// it (-1 for a root).
func (x *executor) launch(i, by int) {
	n := &x.g.nodes[i]
	now := x.sched.Now()
	x.state[i].start = now
	if by >= 0 && n.chain {
		if b := &x.g.nodes[by]; !b.chain || b.timeline != n.timeline {
			// The chain arrived earlier and waited for another
			// timeline's work or a load: charge the wait to the
			// releasing node's class.
			tl := &x.tls[n.timeline]
			tl.blocked[b.class] += now - tl.arrived
			if tl.segs.rec != nil && now > tl.arrived {
				x.waitSeg(tl, by, tl.arrived, now, false)
			}
		}
	}
	switch n.kind {
	case computeNode:
		tl := &x.tls[n.timeline]
		tl.compute += n.dur
		if tl.segs.rec != nil && n.dur > 0 {
			tl.segs.compute(n.label, now, now+n.dur)
		}
		x.sched.After(n.dur, func() { x.complete(i) })
	case collectiveNode:
		x.state[i].left = n.hi - n.lo
		for k := n.lo; k < n.hi; k++ {
			e := &x.g.entries[k]
			var s collective.Schedule
			if e.src >= 0 {
				s = x.comm.Multicast(e.src, e.group, e.bytes)
			} else {
				s = x.comm.AllReduce(e.group, e.bytes)
			}
			x.submit(i, n.class, s)
		}
	case ioNode:
		x.startFlows(i, n)
	}
}

// submit starts one operation of collective node i. Its completion is
// counted in the class's stats and traced as a "comm" span — submission
// to completion, tagged with the class, the strategy and the injected
// bytes, the per-op timeline behind the Figure 2/10 breakdowns.
func (x *executor) submit(i int, class Class, s collective.Schedule) {
	t0 := x.sched.Now()
	bytes := s.TotalBytes()
	x.opSeq++
	id, name := x.opSeq, s.Name
	x.arb.submit(class, s, func(op *collective.Op) {
		now := x.sched.Now()
		cs := x.stats[class]
		cs.Ops++
		cs.Bytes += bytes
		cs.BusyTime += now - t0
		x.stats[class] = cs
		if x.tr != nil {
			x.tr.AsyncSpan("comm", class.String()+" "+name, id, t0, now,
				trace.String("class", class.String()),
				trace.String("strategy", x.cfg.Strategy.String()),
				trace.Float("bytes", bytes))
		}
		if x.crit != nil && op != nil && x.g.hasTail && class == x.g.tail {
			x.tailBlame.Add(op.Blame())
			if d := op.Duration(); d > x.tailMaxDur {
				x.tailMaxDur = d
				x.tailBind = op.BindLink()
			}
		}
		st := &x.state[i]
		if st.left--; st.left == 0 {
			st.op = op
			x.complete(i)
		}
	})
}

// startFlows starts an I/O node's flows, its bytes split evenly over
// them: one per NPU from its nearest controller for the input load, one
// per controller tree for weight loads and gradient stores.
func (x *executor) startFlows(i int, n *node) {
	w := x.cfg.Wafer
	done := func(f *netsim.Flow) {
		st := &x.state[i]
		if st.left--; st.left > 0 {
			return
		}
		st.stall, st.fault = f.ContentionStall(), f.FaultTime()
		if n.chain && x.crit != nil {
			st.bind = f.BindLinkName()
		}
		x.complete(i)
	}
	if n.io == inputLoad {
		npus := w.NPUCount()
		x.state[i].left = npus
		bytes := n.bytes / float64(npus)
		for npu := 0; npu < npus; npu++ {
			x.net.StartFlow(netsim.FlowSpec{
				Links: w.IOCToNPU(w.NearestIOC(npu), npu), Bytes: bytes, Latency: -1, Label: n.label, Done: done,
			})
		}
		return
	}
	nIOC := w.IOCCount()
	trees := &x.loadTrees
	if n.io == gradStore {
		trees = &x.storeTrees
	}
	if *trees == nil {
		route := w.IOCLoadTree
		if n.io == gradStore {
			route = w.IOCStoreTree
		}
		*trees = newPreparedRoutes(x.net, nIOC, route)
	}
	x.state[i].left = nIOC
	bytes := n.bytes / float64(nIOC)
	for ioc := 0; ioc < nIOC; ioc++ {
		x.net.StartFlow(netsim.FlowSpec{
			Prepared: (*trees).get(ioc), Bytes: bytes, Latency: -1, Label: n.label, Done: done,
		})
	}
}

// complete finishes node i: a chain node charges its own duration to
// its class (collectives and loads) and moves the chain on, then every
// successor whose dependencies are now all complete launches, in edge
// order.
func (x *executor) complete(i int) {
	n := &x.g.nodes[i]
	now := x.sched.Now()
	if n.chain {
		tl := &x.tls[n.timeline]
		if n.kind != computeNode {
			t0 := x.state[i].start
			tl.blocked[n.class] += now - t0
			if tl.segs.rec != nil && now > t0 {
				x.waitSeg(tl, i, t0, now, true)
			}
		}
		tl.arrived, tl.finished = now, now
	}
	for _, s := range x.g.succ[n.slo:n.shi] {
		st := &x.state[s]
		if st.pending--; st.pending == 0 {
			x.launch(s, i)
		}
	}
}

// waitSeg records a chain wait over [t0, t1] released by node i: its
// own blocking operation (own) or work the chain depended on. A wait
// on a collective takes the blame of its last operation and, when its
// own, that operation's name; a wait on a load splits by its last
// flow's integrals.
func (x *executor) waitSeg(tl *timeline, i int, t0, t1 sim.Time, own bool) {
	n, st := &x.g.nodes[i], &x.state[i]
	if n.kind == collectiveNode {
		label := n.label
		if own {
			label = opLabel(st.op, label)
		}
		tl.segs.opWait(n.class, label, t0, t1, st.op)
		return
	}
	tl.segs.add(critpath.KindWait, n.class.String(), n.label, t0, t1,
		critpath.ClampBlame(t1-t0, st.stall, st.fault), st.bind, 0)
}

// report attributes the finished iteration. The critical timeline is
// the one whose chain ends last; after its chain, a timeline waits for
// the tail class to drain (DP synchronisation, gradient stores).
func (x *executor) report() *Report {
	g := x.g
	end := x.sched.Now()
	total := end - x.start
	crit := &x.tls[0]
	for i := range x.tls {
		if x.tls[i].finished > crit.finished {
			crit = &x.tls[i]
		}
	}
	var npus []NPUTime
	for i := range x.tls {
		tl := &x.tls[i]
		if tail := end - tl.finished; tail > 0 && g.hasTail {
			tl.blocked[g.tail] += tail
		}
		// Every NPU of a timeline shares its account (an MP group in
		// lockstep, or the whole wafer in streaming).
		for _, npu := range g.npus[i] {
			npus = append(npus, npuTime(npu, total, tl.compute, tl.blocked))
		}
	}
	var critIt *critpath.Iteration
	if x.crit != nil {
		// The iteration's critical path is the critical chain (which
		// tiles [start, finished]) plus the drain, blamed by the
		// aggregated ratios of the tail class's operations.
		if tail := end - crit.finished; tail > 0 && g.hasTail {
			crit.segs.add(critpath.KindWait, g.tail.String(), g.tailLabel,
				crit.finished, end, x.tailBlame.Split(tail), x.tailBind, 0)
		}
		critIt = x.buildIteration(total, crit.segs.segs)
	}
	return &Report{
		Config: x.cfg,
		Total:  total,
		Breakdown: Breakdown{
			Compute:   crit.compute,
			InputLoad: crit.blocked[ClassLoad],
			MP:        crit.blocked[ClassMP],
			DP:        crit.blocked[ClassDP],
			PP:        crit.blocked[ClassPP],
			Stream:    crit.blocked[ClassStream],
		},
		PerSample:           total / float64(x.cfg.Minibatch()),
		ActivationRecompute: g.recompute,
		Comm:                x.stats,
		NPUs:                sortNPUs(npus),
		CritPath:            critIt,
	}
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
