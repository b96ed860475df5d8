// Package critpath is the causal critical-path engine: a per-cell
// dependency recorder and blame-attribution analysis over one
// simulated training iteration.
//
// The simulators record a DAG of causally ordered work intervals —
// compute spans and blocking waits on the training engine's critical
// chain, collective operations, and individual network flows — and an
// exact decomposition of every interval's wall time into three blame
// parts:
//
//   - serialized: time the interval would have taken even with the
//     fabric to itself (bandwidth-limited solo transfer time, paid
//     latencies, arbitration/pause time, dependency ordering);
//   - contention: time lost because a flow's max-min fair rate was
//     below its solo rate (the bandwidth of its narrowest link). For a
//     piecewise-constant rate r(t) this is the integral of
//     (1 − r(t)/solo) over the flow's active life, accrued exactly at
//     settlement boundaries by the network simulator;
//   - fault: the cut-short tail of a collective a link failure
//     cancelled (OpFailed): a link failure aborts every flow on it, so
//     fault time is charged to the failed collective, not its flows.
//
// Like trace.Tracer, the layer is zero-cost when disabled: every hook
// point nil-checks its *Recorder before recording, so unobserved runs
// pay a single predictable branch and no allocation (the PR 3
// zero-alloc recompute gates still hold).
//
// All recording happens from deterministic event callbacks in
// deterministic order, so a recorded DAG — and the fred-critpath/v1
// artifact derived from it — is a pure function of the simulated
// configuration, byte-identical at every worker-pool size.
package critpath

import (
	"sort"

	"github.com/wafernet/fred/internal/sim"
)

// Blame is the exact decomposition of one wall-clock interval into
// causes. Serial is always the residual (interval − contention −
// fault), so the three parts sum to the interval length exactly.
type Blame struct {
	// Serial is serialized time: solo transfer time, latencies,
	// arbitration and dependency ordering.
	Serial float64 `json:"serial_s"`
	// Contention is time lost to max-min fair sharing: the interval's
	// critical flow ran below its solo rate.
	Contention float64 `json:"contention_s"`
	// Fault is fault time: the tails of collectives a link failure
	// cancelled.
	Fault float64 `json:"fault_s"`
}

// Total sums the three parts — the interval length they decompose.
func (b Blame) Total() float64 { return b.Serial + b.Contention + b.Fault }

// Add accumulates another interval's blame.
func (b *Blame) Add(o Blame) {
	b.Serial += o.Serial
	b.Contention += o.Contention
	b.Fault += o.Fault
}

// Split scales the blame proportionally onto an interval of length w,
// with Serial absorbing the floating-point residual so the result sums
// to w exactly. A zero blame (or non-positive w) charges everything to
// Serial.
func (b Blame) Split(w float64) Blame {
	if w <= 0 {
		return Blame{}
	}
	tot := b.Total()
	if tot <= 0 {
		return Blame{Serial: w}
	}
	c := w * (b.Contention / tot)
	f := w * (b.Fault / tot)
	return Blame{Serial: w - c - f, Contention: c, Fault: f}
}

// ClampBlame attributes an elapsed interval from a measured stall
// integral: contention = min(stall, elapsed), serialized = residual.
// The clamp guards the exact-sum property when the measurement covers
// a slightly different window than the interval (a flow's stall
// accrues over its whole active life, which an op phase may subsume or
// truncate).
func ClampBlame(elapsed, stall float64) Blame {
	if elapsed <= 0 {
		return Blame{}
	}
	c := min(max(stall, 0), elapsed)
	return Blame{Serial: elapsed - c, Contention: c}
}

// Kind classifies a DAG node.
type Kind uint8

// Node kinds.
const (
	// KindCompute is a compute span on a replica chain.
	KindCompute Kind = iota
	// KindWait is a blocking wait on a replica chain (for a collective,
	// a pipeline signal, or an I/O transfer).
	KindWait
	// KindOp is a collective operation (all phases).
	KindOp
	// KindFlow is one network flow.
	KindFlow
)

func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindWait:
		return "wait"
	case KindOp:
		return "op"
	case KindFlow:
		return "flow"
	}
	return "node"
}

// NodeID identifies a node within one Recorder; 0 means "no node"
// (IDs start at 1) so hook points can pass IDs around unconditionally.
type NodeID int32

// Node is one work interval in the causal DAG.
type Node struct {
	ID    NodeID
	Kind  Kind
	Label string
	Start sim.Time
	End   sim.Time
	Blame Blame
	// BindLink names the saturated link that froze the interval's
	// critical flow in the waterfiller's bottleneck ordering ("" when
	// the flow was never frozen by a saturated link).
	BindLink string
	// Failed marks an interval cancelled by a fault (an aborted flow,
	// an OpFailed collective).
	Failed bool
}

// Duration returns the node's interval length.
func (n Node) Duration() float64 { return n.End - n.Start }

// EdgeKind classifies a DAG edge.
type EdgeKind uint8

// Edge kinds.
const (
	// EdgeSeq chains consecutive intervals of one execution chain
	// (replica timeline); seq chains are disjoint in wall-clock time,
	// so LongestChain only follows these.
	EdgeSeq EdgeKind = iota
	// EdgeDep marks a completion dependency: the source interval's end
	// released the target (an op completing a wait). Source and target
	// overlap in time, so dep edges carry attribution, not length.
	EdgeDep
	// EdgeExpand links a collective op to the flows it spawned
	// (containment, for drill-down).
	EdgeExpand
)

// Edge is one causal edge, always from an earlier-created node to a
// later-created one.
type Edge struct {
	Kind     EdgeKind
	From, To NodeID
}

// nodeChunk is the number of nodes per arena chunk.
const nodeChunk = 256

// Recorder accumulates one simulation's causal DAG. The zero value is
// ready to use; a nil *Recorder disables recording (hook points
// nil-check, like trace.Tracer). Recorders are single-goroutine, like
// the simulators that feed them.
//
// Nodes live in a chunked value arena: fixed-size chunks that are
// never copied once allocated, so recording a node costs no append
// growth, and edges refer to nodes by NodeID index.
type Recorder struct {
	chunks []*[nodeChunk]Node
	count  int
	edges  []Edge
	// closed accumulates the blame of every completed (Closed, Failed
	// or Added) node — the cumulative decomposition the time-series
	// flight recorder samples mid-run.
	closed Blame
}

// ClosedBlame returns the cumulative blame of every node recorded so
// far (completed nodes only; an Open node contributes once Close or
// Fail runs). It is a monotone function of recording progress, so the
// flight recorder can sample it as a set of cumulative counters.
func (r *Recorder) ClosedBlame() Blame { return r.closed }

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// node returns the arena slot of a valid ID.
func (r *Recorder) node(id NodeID) *Node {
	i := int(id - 1)
	return &r.chunks[i/nodeChunk][i%nodeChunk]
}

// valid reports whether id names a recorded node.
func (r *Recorder) valid(id NodeID) bool { return id > 0 && int(id) <= r.count }

// Add appends a completed node (ID assigned by the recorder) and
// returns its ID.
func (r *Recorder) Add(n Node) NodeID {
	if r.count%nodeChunk == 0 {
		r.chunks = append(r.chunks, new([nodeChunk]Node))
	}
	r.count++
	n.ID = NodeID(r.count)
	*r.node(n.ID) = n
	r.closed.Add(n.Blame)
	return n.ID
}

// Open appends a node whose end is not yet known; Close or Fail
// completes it.
func (r *Recorder) Open(n Node) NodeID { return r.Add(n) }

// Close completes an open node with its end time, blame and binding
// link. A zero id is ignored.
func (r *Recorder) Close(id NodeID, end sim.Time, b Blame, bindLink string) {
	if !r.valid(id) {
		return
	}
	n := r.node(id)
	r.closed.Add(Blame{Serial: b.Serial - n.Blame.Serial,
		Contention: b.Contention - n.Blame.Contention, Fault: b.Fault - n.Blame.Fault})
	n.End = end
	n.Blame = b
	n.BindLink = bindLink
}

// Fail completes an open node as fault-cancelled.
func (r *Recorder) Fail(id NodeID, end sim.Time, b Blame) {
	if !r.valid(id) {
		return
	}
	n := r.node(id)
	r.closed.Add(Blame{Serial: b.Serial - n.Blame.Serial,
		Contention: b.Contention - n.Blame.Contention, Fault: b.Fault - n.Blame.Fault})
	n.End = end
	n.Blame = b
	n.Failed = true
}

// Edge records a causal edge. Zero endpoints are ignored, so hook
// points may pass optional parents unconditionally.
func (r *Recorder) Edge(k EdgeKind, from, to NodeID) {
	if from <= 0 || to <= 0 {
		return
	}
	r.edges = append(r.edges, Edge{Kind: k, From: from, To: to})
}

// Node returns a node by ID (zero Node for an unknown ID).
func (r *Recorder) Node(id NodeID) Node {
	if !r.valid(id) {
		return Node{}
	}
	return *r.node(id)
}

// NodeCount returns the number of recorded nodes.
func (r *Recorder) NodeCount() int { return r.count }

// EdgeCount returns the number of recorded edges.
func (r *Recorder) EdgeCount() int { return len(r.edges) }

// LongestChain returns the maximum summed duration over any path of
// EdgeSeq edges — the longest single execution chain in the DAG.
// Because seq-chained intervals are disjoint in wall-clock time, this
// lower-bounds the simulated makespan. Edges that do not go from an
// earlier node to a later one are skipped (creation order is the
// topological order by construction).
func (r *Recorder) LongestChain() float64 {
	if r.count == 0 {
		return 0
	}
	best := make([]float64, r.count+1)
	for id := NodeID(1); int(id) <= r.count; id++ {
		best[id] = r.node(id).Duration()
	}
	seq := make([]Edge, 0, len(r.edges))
	for _, e := range r.edges {
		if e.Kind == EdgeSeq && e.From < e.To {
			seq = append(seq, e)
		}
	}
	sort.SliceStable(seq, func(i, j int) bool { return seq[i].To < seq[j].To })
	for _, e := range seq {
		if c := best[e.From] + r.node(e.To).Duration(); c > best[e.To] {
			best[e.To] = c
		}
	}
	max := 0.0
	for _, b := range best {
		if b > max {
			max = b
		}
	}
	return max
}
