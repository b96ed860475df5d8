package training

import (
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/workload"
)

// The iteration graph: both execution modes describe one training
// iteration as compute, collective and I/O nodes joined by dependency
// edges, and one executor (executor.go) replays it on the wafer. The
// graph is a function of the model, the strategy and the placement
// only; collective nodes name their groups and byte counts, and are
// compiled against the wafer's Comm when they launch.
//
// Every node belongs to one timeline: a (dp, pp) stage replica in
// weight-stationary mode, or the single wafer-wide chain in weight
// streaming. A timeline's chain nodes (compute, and the collectives
// and loads it blocks on) run one after another; its other nodes
// (pipeline sends, gradient syncs, weight loads and stores) run
// beside the chain and release other nodes when they finish.

type nodeKind uint8

const (
	computeNode nodeKind = iota
	collectiveNode
	ioNode
)

// ioKind is the traffic an I/O node carries over the I/O controllers'
// routes.
type ioKind uint8

const (
	// inputLoad sends each NPU its input-minibatch share from its
	// nearest controller.
	inputLoad ioKind = iota
	// weightLoad broadcasts a layer group down every load tree.
	weightLoad
	// gradStore streams a layer group's reduced gradients up every
	// store tree.
	gradStore
	numIOKinds
)

// node is one unit of work of the iteration.
type node struct {
	kind     nodeKind
	io       ioKind
	chain    bool // the timeline blocks on it
	timeline int32
	class    Class
	// label names the critpath segment: a compute span's label, a
	// blocking collective's fallback when its schedule is empty, or the
	// wait a non-chain node releases.
	label string
	dur   float64 // compute seconds
	bytes float64 // I/O bytes, split evenly over the node's flows
	// entries[lo:hi] of the graph are a collective's operations; the
	// node completes when all of them have.
	lo, hi int32
	deps   int32 // dependency count
	// succ[slo:shi] of the graph are the successors, in edge order.
	slo, shi int32
}

// entry is one operation of a collective node: an all-reduce over
// group, or a multicast from src to group.
type entry struct {
	group []int
	src   int // -1 for an all-reduce
	bytes float64
}

type edge struct{ from, to int32 }

// graph is one iteration's nodes and edges, plus what the report
// needs to attribute the timelines.
type graph struct {
	nodes   []node
	entries []entry
	edges   []edge // build order; finish sorts them into succ
	succ    []int

	// npus[t] are the placed NPUs that share timeline t's account.
	npus [][]int
	// After a timeline's chain ends, the iteration drains work of the
	// tail class (DP gradient syncs, gradient stores); when hasTail is
	// set, that wait is charged to the tail class under tailLabel.
	tail      Class
	hasTail   bool
	tailLabel string
	recompute bool // some stage overflowed HBM and recomputes activations
}

// reserve sizes the node, entry and edge arrays for a build of at most
// that many of each, so the build appends without growing them.
func (g *graph) reserve(nodes, entries, edges int) {
	g.nodes = make([]node, 0, nodes)
	g.entries = make([]entry, 0, entries)
	g.edges = make([]edge, 0, edges)
}

func (g *graph) add(n node) int {
	g.nodes = append(g.nodes, n)
	return len(g.nodes) - 1
}

func (g *graph) compute(t int, label string, d float64) int {
	return g.add(node{kind: computeNode, chain: true, timeline: int32(t), label: label, dur: d})
}

func (g *graph) collective(t int, class Class, label string, chain bool, es ...entry) int {
	lo := int32(len(g.entries))
	g.entries = append(g.entries, es...)
	return g.add(node{kind: collectiveNode, chain: chain, timeline: int32(t), class: class, label: label,
		lo: lo, hi: int32(len(g.entries))})
}

func (g *graph) io(t int, k ioKind, class Class, label string, chain bool, bytes float64) int {
	return g.add(node{kind: ioNode, io: k, chain: chain, timeline: int32(t), class: class, label: label, bytes: bytes})
}

// edge makes to depend on from (no-op for from < 0). A node's
// successors run in the order their edges were added.
func (g *graph) edge(from, to int) {
	if from < 0 {
		return
	}
	g.edges = append(g.edges, edge{int32(from), int32(to)})
	g.nodes[to].deps++
}

// finish groups the edges by source, keeping their order.
func (g *graph) finish() *graph {
	for _, e := range g.edges {
		g.nodes[e.from].shi++
	}
	at := int32(0)
	for i := range g.nodes {
		n := &g.nodes[i]
		n.slo, n.shi, at = at, at, at+n.shi
	}
	g.succ = make([]int, len(g.edges))
	for _, e := range g.edges {
		n := &g.nodes[e.from]
		g.succ[n.shi] = int(e.to)
		n.shi++
	}
	g.edges = nil
	return g
}

// buildGraph returns the iteration graph of a normalized config.
func buildGraph(cfg *Config) *graph {
	if cfg.Model.Mode == workload.WeightStreaming {
		return streamingGraph(cfg)
	}
	return stationaryGraph(cfg)
}

// computeSeconds converts per-NPU FLOPs into time using the workload's
// calibrated effective throughput.
func computeSeconds(m *workload.Model, flops float64) float64 {
	return flops / (m.EffectiveTFLOPs * 1e12)
}

// stationaryGraph builds one weight-stationary iteration
// (Section 3.1.1): per stage replica, the pipeline schedule's forward
// and backward steps, each a compute span followed by the replica's
// blocking MP all-reduce; a multicast of the boundary tensor to the
// adjacent stage's replica, which waits for it; and the last backward
// step split into gradient buckets, each bucket's DP synchronisation
// (reduce-scatter + all-gather under ZeRO-2) starting once every DP
// replica of the stage has produced it.
func stationaryGraph(cfg *Config) *graph {
	s := cfg.Strategy
	M, nb := cfg.Microbatches, cfg.GradBuckets
	microbatch := float64(cfg.MinibatchPerReplica) / float64(M)
	stages := stageLayers(cfg.Model.Layers, s.PP)
	g := &graph{tail: ClassDP, hasTail: s.DP > 1, tailLabel: "dp-sync"}

	// Per timeline: 2M−1+nb compute steps, each followed by an MP
	// all-reduce when MP > 1, and M multicasts to each adjacent stage;
	// per stage, nb DP syncs of MP operations each when DP > 1.
	steps, nodes, entries, edges, nSends := 2*M-1+nb, 0, 0, 0, 0
	coll, dpSyncs := 0, 0
	if s.MP > 1 {
		coll = steps
	}
	if s.DP > 1 {
		dpSyncs = nb
	}
	for pp := 0; pp < s.PP; pp++ {
		sends := M * (min(pp, 1) + min(s.PP-1-pp, 1))
		nodes += steps + coll + sends
		entries += coll + sends
		edges += steps - 1 + coll + 2*sends + dpSyncs
		nSends += s.DP * sends
	}
	g.reserve(s.DP*nodes+s.PP*dpSyncs, s.DP*entries+s.PP*dpSyncs*s.MP, s.DP*edges)

	timeline := func(dp, pp int) int { return dp*s.PP + pp }
	g.npus = make([][]int, 0, s.DP*s.PP)
	for dp := 0; dp < s.DP; dp++ {
		for pp := 0; pp < s.PP; pp++ {
			ranks := make([]int, s.MP)
			for mp := range ranks {
				ranks[mp] = s.Rank(parallelism.Worker{MP: mp, DP: dp, PP: pp})
			}
			g.npus = append(g.npus, cfg.Placement.NPUs(ranks))
		}
	}
	// recv[t][ub] is the first compute node of timeline t's forward
	// (0) or backward (1) step of microbatch ub, which waits for the
	// adjacent stage's multicast.
	recv := make([][2][]int, len(g.npus))
	type send struct{ node, to, ub, dir int }
	sends := make([]send, 0, nSends)
	// dpSync[pp*nb+b] is the DP synchronisation of stage pp's bucket b.
	dpSync := make([]int, s.PP*nb)
	for i := range dpSync {
		dpSync[i] = -1
	}

	for dp := 0; dp < s.DP; dp++ {
		for pp := 0; pp < s.PP; pp++ {
			t := timeline(dp, pp)
			npus := g.npus[t]
			st := statsOf(stages[pp])
			fwd := computeSeconds(cfg.Model, st.fwdFLOPs*microbatch/float64(s.MP))
			bwdFactor, rc := bwdFactorFor(cfg, stages[pp], pp)
			g.recompute = g.recompute || rc
			mpBytes := st.mpBytes * microbatch
			actBytes := st.lastActOut * microbatch
			recv[t] = [2][]int{make([]int, M), make([]int, M)}

			prev := -1
			// step appends a compute span and its MP all-reduce to the
			// chain, returning the compute node.
			step := func(d, bytes float64) int {
				c := g.compute(t, "compute", d)
				g.edge(prev, c)
				prev = c
				if s.MP > 1 && bytes > 0 {
					prev = g.collective(t, ClassMP, "mp-allreduce", true, entry{group: npus, src: -1, bytes: bytes})
					g.edge(c, prev)
				}
				return c
			}
			// sendTo multicasts the boundary tensor from one MP member
			// to every NPU of the adjacent stage (footnote 8); the
			// sender does not block.
			sendTo := func(toPP, ub, dir int) {
				to := timeline(dp, toPP)
				n := g.collective(t, ClassPP, "pp-wait", false,
					entry{group: g.npus[to], src: npus[0], bytes: actBytes})
				g.edge(prev, n)
				sends = append(sends, send{n, to, ub, dir})
			}

			for _, ps := range pipelineSteps(cfg.Schedule, M, s.PP, pp) {
				switch {
				case !ps.backward:
					recv[t][0][ps.ub] = step(fwd, mpBytes)
					if pp < s.PP-1 {
						sendTo(pp+1, ps.ub, 0)
					}
				case !ps.lastBackward:
					recv[t][1][ps.ub] = step(bwdFactor*fwd, mpBytes)
					if pp > 0 {
						sendTo(pp-1, ps.ub, 1)
					}
				default:
					// Final backward step: split into gradient buckets
					// so DP sync overlaps the backward tail.
					for b := 0; b < nb; b++ {
						c := step(bwdFactor*fwd/float64(nb), mpBytes/float64(nb))
						if b == 0 {
							recv[t][1][ps.ub] = c
						}
						if s.DP > 1 {
							if dpSync[pp*nb+b] < 0 {
								dpSync[pp*nb+b] = dpSyncNode(g, cfg, st, pp, nb, t)
							}
							g.edge(prev, dpSync[pp*nb+b])
						}
					}
					if pp > 0 {
						sendTo(pp-1, ps.ub, 1)
					}
				}
			}
		}
	}
	for _, sd := range sends {
		g.edge(sd.node, recv[sd.to][sd.dir][sd.ub])
	}
	return g.finish()
}

// dpSyncNode is one gradient bucket's DP synchronisation: one
// concurrent all-reduce per MP shard, each MP peer syncing its own
// gradient slice with its DP group. Under ZeRO-2 the sync is a
// reduce-scatter of gradients plus an all-gather of updated parameters
// — the two halves of an all-reduce, with the same volume class — so
// the all-reduce schedule models both (ZeRO-2's difference is sharded
// optimizer memory, not traffic).
func dpSyncNode(g *graph, cfg *Config, st layerStats, pp, nb, t int) int {
	s := cfg.Strategy
	bucketParams := st.params / float64(nb)
	bytes := bucketParams * 2 / float64(s.MP) // FP16 grads, MP-sharded
	es := make([]entry, s.MP)
	for mp := range es {
		group := make([]int, s.DP)
		for dp := range group {
			group[dp] = cfg.Placement[s.Rank(parallelism.Worker{MP: mp, DP: dp, PP: pp})]
		}
		es[mp] = entry{group: group, src: -1, bytes: bytes}
	}
	return g.collective(t, ClassDP, "dp-sync", false, es...)
}

// streamingGraph builds one weight-streaming iteration
// (Section 3.1.2): layer groups of PP consecutive layers stream through
// the wafer. The model is loaded twice (forward, backward) via the I/O
// broadcast trees by a sequential loader that runs at most two groups
// ahead of compute (double buffering), and gradients are reduced along
// DP inside the store trees as they stream out. Each group pass runs
// the group-internal pipeline wave by wave (M+PP−1 waves, GPT-3's PP(2)
// pipelining two microbatches, Section 7.3): a compute span as long as
// the slowest active stage, then the active stages' MP all-reduces on
// every DP replica, then the pipeline transfers between adjacent
// active stages.
func streamingGraph(cfg *Config) *graph {
	s := cfg.Strategy
	model := cfg.Model
	L := len(model.Layers)
	G := (L + s.PP - 1) / s.PP
	M := cfg.Microbatches
	microbatch := float64(cfg.MinibatchPerReplica) / float64(M)
	g := &graph{tail: ClassStream, hasTail: true, tailLabel: "grad-store-drain"}
	place := func(mp, dp, pp int) int { return cfg.Placement[s.Rank(parallelism.Worker{MP: mp, DP: dp, PP: pp})] }

	// Streaming drives every NPU with the same global wave timeline
	// (the whole wafer executes each layer group together).
	all := make([]int, s.Workers())
	copy(all, cfg.Placement)
	g.npus = [][]int{all}
	// mpGroups[p][dp] is the MP group of pipeline stage p in DP replica
	// dp; its members are also the destinations of stage p−1's
	// transfers.
	mpGroups := make([][][]int, s.PP)
	for p := range mpGroups {
		mpGroups[p] = make([][]int, s.DP)
		for dp := range mpGroups[p] {
			grp := make([]int, s.MP)
			for mp := range grp {
				grp[mp] = place(mp, dp, p)
			}
			mpGroups[p][dp] = grp
		}
	}
	// groupStages[i][p] is the layer of pipeline stage p in group i.
	groupStages := make([][]workload.Layer, G)
	for i := range groupStages {
		groupStages[i] = model.Layers[i*s.PP : min(i*s.PP+s.PP, L)]
	}
	groupBytes := func(i int) float64 {
		total := 0.0
		for _, l := range groupStages[i] {
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

	// Size the arrays: per pass, a wave-compute node per wave, with an
	// MP barrier when MP > 1 and a pipeline barrier when two adjacent
	// stages are active; besides, the input load, 2G weight loads and G
	// gradient stores, and their edges (each load waits for the one
	// before it and for the compute two loads back).
	{
		nodes, entries, edges := 1+3*G, 0, 2+5*G
		for i := 0; i < nLoads; i++ {
			n := len(groupStages[loadGroup(i)])
			for k := 0; k < M+n-1; k++ {
				active, links := min(n, k+1)-max(0, k-M+1), min(n-1, k+1)-max(0, k-M+1)
				nodes++
				edges++
				if s.MP > 1 && active > 0 {
					nodes++
					edges++
					entries += active * s.DP
				}
				if links > 0 {
					nodes++
					edges++
					entries += links * s.DP
				}
			}
			edges++ // the pass's first wave waits for its load
		}
		g.reserve(nodes, entries, edges)
	}
	var es []entry // one wave's operations of one class
	prev := -1
	if !model.InputPrefetchable {
		// Input minibatch load cannot hide behind busy controllers
		// (Transformer-1T, Section 8.2): block on it first.
		prev = g.io(0, inputLoad, ClassLoad, "input-load", true, float64(cfg.Minibatch())*model.SampleBytes)
	}
	loads := make([]int, nLoads)
	loads[0] = g.io(0, weightLoad, ClassStream, "weight-load", false, groupBytes(0))
	g.edge(prev, loads[0])
	for i := 0; i < nLoads; i++ {
		grp, backward := loadGroup(i), i >= G
		if i+1 < nLoads {
			// The loader starts load i+1 once load i is in and the
			// compute two loads back has released its buffer.
			loads[i+1] = g.io(0, weightLoad, ClassStream, "weight-load", false, groupBytes(loadGroup(i+1)))
			if i >= 1 {
				g.edge(prev, loads[i+1])
			}
		}
		if i > G {
			g.edge(prev, g.io(0, gradStore, ClassStream, "grad-store", false, groupBytes(loadGroup(i-1))))
		}

		stages := groupStages[grp]
		factor := 1.0
		if backward {
			factor = 2
		}
		for k := 0; k < M+len(stages)-1; k++ {
			// Stages active this wave.
			lo, hi := max(0, k-M+1), min(len(stages), k+1)
			maxCompute := 0.0
			for p := lo; p < hi; p++ {
				maxCompute = max(maxCompute, factor*computeSeconds(model, stages[p].FwdFLOPs*microbatch/float64(s.MP)))
			}
			c := g.compute(0, "wave-compute", maxCompute)
			g.edge(prev, c)
			if k == 0 {
				g.edge(loads[i], c)
			}
			prev = c
			// MP collectives of the active stages, all DP replicas.
			es = es[:0]
			if s.MP > 1 {
				for p := lo; p < hi; p++ {
					bytes := factor * float64(stages[p].MPAllReducesPerPass) * stages[p].ActivationBytes * microbatch
					if bytes <= 0 {
						continue
					}
					for _, grp := range mpGroups[p] {
						es = append(es, entry{group: grp, src: -1, bytes: bytes})
					}
				}
			}
			prev = waveBarrier(g, ClassMP, prev, es)
			// Pipeline transfers between adjacent active stages.
			es = es[:0]
			for p := lo; p < min(hi, len(stages)-1); p++ {
				bytes := stages[p].ActivationBytes * microbatch
				for dp := 0; dp < s.DP; dp++ {
					es = append(es, entry{group: mpGroups[p+1][dp], src: place(0, dp, p), bytes: bytes})
				}
			}
			prev = waveBarrier(g, ClassPP, prev, es)
		}
		if i+1 < nLoads {
			g.edge(loads[i], loads[i+1])
		}
	}
	g.edge(prev, g.io(0, gradStore, ClassStream, "grad-store", false, groupBytes(0)))
	return g.finish()
}

// waveBarrier appends a wave's operations of one class to the chain as
// one blocking collective and returns the chain's new end; a wave with
// no operations of the class adds nothing.
func waveBarrier(g *graph, class Class, prev int, es []entry) int {
	if len(es) == 0 {
		return prev
	}
	n := g.collective(0, class, class.String(), true, es...)
	g.edge(prev, n)
	return n
}

// pipeStep is one entry of a stage's pipeline schedule.
type pipeStep struct {
	backward     bool
	ub           int
	lastBackward bool
}

// pipelineSteps builds the step sequence of pipeline stage pp.
//
// GPipe: all M forwards, then all M backwards in reverse microbatch
// order (the flush schedule of Huang et al., Section 7.3).
//
// 1F1B: (PP−pp) warm-up forwards, then alternating backward/forward in
// increasing microbatch order, then the cool-down backwards — keeping
// at most PP−pp microbatches' activations resident instead of M
// (Narayanan et al.'s PipeDream-flush).
func pipelineSteps(kind PipelineSchedule, M, PP, pp int) []pipeStep {
	steps := make([]pipeStep, 0, 2*M)
	switch kind {
	case Schedule1F1B:
		warm := min(PP-pp, M)
		for ub := 0; ub < warm; ub++ {
			steps = append(steps, pipeStep{ub: ub})
		}
		nextF := warm
		for ub := 0; ub < M; ub++ {
			steps = append(steps, pipeStep{backward: true, ub: ub, lastBackward: ub == M-1})
			if nextF < M {
				steps = append(steps, pipeStep{ub: nextF})
				nextF++
			}
		}
	default: // GPipe
		for ub := 0; ub < M; ub++ {
			steps = append(steps, pipeStep{ub: ub})
		}
		for ub := M - 1; ub >= 0; ub-- {
			steps = append(steps, pipeStep{backward: true, ub: ub, lastBackward: ub == 0})
		}
	}
	return steps
}
