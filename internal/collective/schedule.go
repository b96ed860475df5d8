// Package collective implements the collective-communication
// algorithms of Section 7.2 of the FRED paper as executable schedules
// over a wafer topology:
//
//   - endpoint ring algorithms (uni- and bidirectional, with the
//     "two concurrent chunks in reverse direction" of Kumar & Jouppi)
//     over logical rings embedded in the 2D mesh;
//   - the hierarchical 2D ring algorithm (BlueConnect-style) used by
//     Fred-A/Fred-C, which reduces L1↔L2 traffic;
//   - in-network collective execution (Fred-B/Fred-D), where each NPU
//     injects D bytes once and the switch hierarchy reduces and
//     broadcasts (Section 2.2, Section 6.1);
//   - point-to-point and multicast transfers for pipeline parallelism,
//     and all-to-all decompositions.
//
// A collective is compiled into a Schedule: an ordered list of phases,
// each a set of concurrent Transfers (link sets + byte counts). An Op
// executes a schedule on the flow-level network with a barrier between
// phases, and supports pause/resume so the training simulator can
// preempt lower-priority communication (Section 5.4).
package collective

import (
	"fmt"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
)

// Transfer is one pipelined transfer: Bytes move across every link in
// Links at a single rate (a path for unicast, a tree for
// multicast/reduction).
type Transfer struct {
	Links []netsim.LinkID
	Bytes float64
	// LatencyOverride, when positive, replaces the default cut-through
	// latency (the sum of the route's link latencies — correct for a
	// path, an overestimate for trees and pipelined rings): tree
	// transfers use their depth, pipelined rings their fill time
	// (steps × hop latency).
	LatencyOverride float64

	// prepared, set by the schedule compiler (compile.go), carries the
	// route pre-resolved against the target network so replay skips
	// per-flow dedup/latency work. Nil on hand-built schedules.
	prepared *netsim.PreparedRoute
}

// Phase is a set of transfers that proceed concurrently; the phase
// completes when all of them have drained.
type Phase []Transfer

// Schedule is a compiled collective: phases execute serially.
type Schedule struct {
	Name   string
	Phases []Phase
	// Err marks a schedule that could not be compiled (e.g. an
	// unsupported wafer type): Start fails the Op with it through the
	// ordinary Op.Err path instead of panicking, so one bad cell
	// surfaces as a CellError rather than killing a parallel sweep.
	Err error
}

// TotalBytes returns the sum of bytes over all transfers — the total
// traffic the collective injects into the fabric.
func (s Schedule) TotalBytes() float64 {
	total := 0.0
	for _, ph := range s.Phases {
		for _, t := range ph {
			total += t.Bytes
		}
	}
	return total
}

// LinkBytes returns the per-link traffic of the schedule.
func (s Schedule) LinkBytes() map[netsim.LinkID]float64 {
	out := make(map[netsim.LinkID]float64)
	for _, ph := range s.Phases {
		for _, t := range ph {
			for _, l := range t.Links {
				out[l] += t.Bytes
			}
		}
	}
	return out
}

// Empty reports whether the schedule moves no data. An errored
// schedule is never empty: it must reach Start so the error surfaces
// through the Op instead of being skipped as a no-op.
func (s Schedule) Empty() bool {
	if s.Err != nil {
		return false
	}
	for _, ph := range s.Phases {
		if len(ph) > 0 {
			return false
		}
	}
	return true
}

// OpState describes an Op's lifecycle.
type OpState int

// Op lifecycle states.
const (
	OpRunning OpState = iota
	OpPaused
	OpDone
	// OpFailed means the collective could not complete: a transfer had
	// no route (dead topology) or one of its flows was aborted by a
	// link failure. Err reports the cause; onDone never fires.
	OpFailed
)

// Op is an in-flight collective operation.
type Op struct {
	net      *netsim.Network
	sched    *sim.Scheduler
	schedule Schedule
	onDone   func(*Op)
	onFail   func(*Op)
	phase    int
	// active holds the current phase's flows with the IDs they were
	// started under. A flow's handle is only valid until its Done
	// returns — the network then recycles the Flow object, possibly
	// into another op — so Pause, Resume and fail skip entries whose
	// flow ID moved on. The slice is reused phase after phase; one
	// backs it while phases hold a single transfer.
	active   []flowHandle
	one      [1]flowHandle
	pendingN int
	// flowFn is every flow's Done and OnFail callback (flowEnded),
	// bound once per op rather than twice per flow.
	flowFn   func(*netsim.Flow)
	state    OpState
	started  sim.Time
	finished sim.Time
	err      error

	// Critpath bookkeeping, only touched while the network has a
	// recorder: the op's DAG node, the start of the current phase
	// window, the accumulated blame over finished phase windows, and
	// the binding link of the longest phase window.
	rec        *critpath.Recorder
	node       critpath.NodeID
	phaseStart sim.Time
	blame      critpath.Blame
	bindLink   string
	bindDur    float64
}

// flowHandle is a flow started by an op, with the ID it was started
// under (its generation stamp).
type flowHandle struct {
	f  *netsim.Flow
	id uint64
}

// live returns the flow while the handle still names it, nil once the
// network recycled it for another transfer.
func (h flowHandle) live() *netsim.Flow {
	if h.f.ID() != h.id {
		return nil
	}
	return h.f
}

// Start begins executing a schedule on the network. onDone fires when
// the final phase drains; it may start new work.
func Start(net *netsim.Network, schedule Schedule, onDone func(*Op)) *Op {
	op := &Op{
		net:      net,
		sched:    net.Scheduler(),
		schedule: schedule,
		onDone:   onDone,
		started:  net.Scheduler().Now(),
	}
	if rec := net.CritPath(); rec != nil {
		op.rec = rec
		op.node = rec.Open(critpath.Node{
			Kind:  critpath.KindOp,
			Label: schedule.Name,
			Start: op.started,
		})
		op.phaseStart = op.started
	}
	if schedule.Err != nil {
		op.fail(schedule.Err)
		return op
	}
	op.startPhase()
	return op
}

// State returns the op's lifecycle state.
func (op *Op) State() OpState { return op.state }

// Err returns why the op failed (nil unless State is OpFailed). A
// transfer with no links fails the op synchronously, so callers on
// degraded topologies should check Err right after Start.
func (op *Op) Err() error { return op.err }

// OnFail registers a callback fired when the op fails (link failure
// aborting a flow, or a later phase with no route). It fires
// immediately if the op has already failed.
func (op *Op) OnFail(fn func(*Op)) {
	op.onFail = fn
	if op.state == OpFailed && fn != nil {
		fn(op)
	}
}

// Started returns the op's start time.
func (op *Op) Started() sim.Time { return op.started }

// Finished returns the completion time (valid once State is OpDone).
func (op *Op) Finished() sim.Time { return op.finished }

// Duration returns the elapsed simulated time of a completed op.
func (op *Op) Duration() sim.Time { return op.finished - op.started }

// Name returns the schedule name.
func (op *Op) Name() string { return op.schedule.Name }

func (op *Op) startPhase() {
	for op.phase < len(op.schedule.Phases) && len(op.schedule.Phases[op.phase]) == 0 {
		op.phase++
	}
	if op.phase >= len(op.schedule.Phases) {
		op.complete()
		return
	}
	phase := op.schedule.Phases[op.phase]
	if op.flowFn == nil {
		op.flowFn = op.flowEnded
	}
	switch {
	case cap(op.active) >= len(phase):
		op.active = op.active[:0]
	case len(phase) == 1:
		op.active = op.one[:0]
	default:
		op.active = make([]flowHandle, 0, len(phase))
	}
	op.pendingN = len(phase)
	for _, t := range phase {
		if len(t.Links) == 0 {
			// A fault plan can legitimately produce a routeless transfer
			// (dead topology between two members): fail the op instead of
			// panicking.
			op.fail(fmt.Errorf("collective: %s: phase %d: transfer with no links",
				op.schedule.Name, op.phase))
			return
		}
		lat := t.LatencyOverride
		if lat <= 0 {
			// Cut-through: pay the route latency once per transfer.
			lat = -1
		}
		f := op.net.StartFlow(netsim.FlowSpec{
			Links:      t.Links,
			Bytes:      t.Bytes,
			Latency:    lat,
			Prepared:   t.prepared,
			Label:      op.schedule.Name,
			Done:       op.flowFn,
			OnFail:     op.flowFn,
			CritParent: op.node,
		})
		op.active = append(op.active, flowHandle{f, f.ID()})
	}
}

// flowEnded is the Done and OnFail callback of the op's flows: the
// flow's state tells a delivered flow from one a link failure aborted.
func (op *Op) flowEnded(f *netsim.Flow) {
	if f.State() == netsim.FlowFailed {
		op.flowAborted(f)
		return
	}
	op.flowDone(f)
}

func (op *Op) flowDone(f *netsim.Flow) {
	op.pendingN--
	if op.pendingN == 0 && op.state == OpRunning {
		if op.rec != nil {
			op.accountPhase(f)
		}
		op.phase++
		op.startPhase()
	}
}

// accountPhase closes the current phase window at the current time,
// blaming it by the phase's critical flow — the last one to drain (its
// completion is what let the phase advance). Phase windows tile
// [started, finished] exactly (each opens where the previous closed),
// so the accumulated blame sums to the op's duration; time spent
// paused under arbitration falls into the window and — since a paused
// flow accrues no stall — lands in Serial.
func (op *Op) accountPhase(f *netsim.Flow) {
	now := op.sched.Now()
	elapsed := now - op.phaseStart
	b := critpath.Blame{Serial: elapsed}
	if f != nil {
		b = critpath.ClampBlame(elapsed, f.ContentionStall(), f.FaultTime())
	}
	op.blame.Add(b)
	if elapsed > op.bindDur {
		op.bindDur = elapsed
		op.bindLink = ""
		if f != nil {
			op.bindLink = f.BindLinkName()
		}
	}
	op.phaseStart = now
}

// Blame returns the op's accumulated blame decomposition: the phase
// windows closed so far, decomposed by each phase's critical flow.
// For a completed op the parts sum to Duration exactly. Zero unless
// the network has a critpath recorder.
func (op *Op) Blame() critpath.Blame { return op.blame }

// BindLink names the binding link of the op's longest phase window
// ("" when no critical flow was frozen by a saturated link, or
// critpath recording is off).
func (op *Op) BindLink() string { return op.bindLink }

// CritNode returns the op's DAG node id (0 when recording is off).
func (op *Op) CritNode() critpath.NodeID { return op.node }

// flowAborted handles one of the op's flows exhausting its retry
// budget after a link failure: the whole collective fails.
func (op *Op) flowAborted(f *netsim.Flow) {
	op.fail(fmt.Errorf("collective: %s: phase %d: flow aborted by link failure after %d retries",
		op.schedule.Name, op.phase, f.Retries()))
}

// fail moves the op to OpFailed, cancels its surviving flows, and
// fires the failure callback. Later failures of an already-failed op
// are no-ops.
func (op *Op) fail(err error) {
	if op.state == OpDone || op.state == OpFailed {
		return
	}
	op.state = OpFailed
	op.err = err
	op.finished = op.sched.Now()
	for _, h := range op.active {
		if f := h.live(); f != nil {
			f.Cancel()
		}
	}
	op.active = nil
	if op.rec != nil {
		// The open phase window was cut short by the fault: charge its
		// tail to fault recovery and close the node as failed.
		if tail := op.finished - op.phaseStart; tail > 0 {
			op.blame.Fault += tail
			op.phaseStart = op.finished
		}
		op.rec.Fail(op.node, op.finished, op.blame)
	}
	if op.onFail != nil {
		op.onFail(op)
	}
}

func (op *Op) complete() {
	op.state = OpDone
	op.finished = op.sched.Now()
	op.active = nil
	if op.rec != nil {
		op.rec.Close(op.node, op.finished, op.blame, op.bindLink)
	}
	if op.onDone != nil {
		op.onDone(op)
	}
}

// Pause preempts the op: all in-flight transfers release their
// bandwidth and keep their progress (Section 5.4's circuit
// reconfiguration: the higher-priority communication takes the
// fabric). Pausing a finished op is a no-op.
func (op *Op) Pause() {
	if op.state != OpRunning {
		return
	}
	op.state = OpPaused
	for _, h := range op.active {
		if f := h.live(); f != nil {
			f.Pause()
		}
	}
}

// Resume restarts a paused op's in-flight transfers.
func (op *Op) Resume() {
	if op.state != OpPaused {
		return
	}
	op.state = OpRunning
	for _, h := range op.active {
		if f := h.live(); f != nil {
			f.Resume()
		}
	}
}

// RunToCompletionErr starts the schedule on an otherwise idle network,
// drains the scheduler, and returns the elapsed time — or the op's
// failure when a fault plan leaves the collective unroutable or aborts
// one of its flows. A scheduler whose bound context expired mid-run
// (sim.Scheduler.BindContext) surfaces as the scheduler's
// *sim.CanceledError: the op never completed and its partial state is
// discarded.
func RunToCompletionErr(net *netsim.Network, schedule Schedule) (sim.Time, error) {
	start := net.Scheduler().Now()
	var end sim.Time
	op := Start(net, schedule, func(op *Op) { end = op.Finished() })
	net.Scheduler().Run()
	if err := net.Scheduler().Err(); err != nil {
		return 0, err
	}
	if err := op.Err(); err != nil {
		return 0, err
	}
	return end - start, nil
}

// RunToCompletionBlame is RunToCompletionErr returning the op's blame
// decomposition alongside the elapsed time: how much of the
// collective's duration was serialized, lost to contention, or spent
// in fault recovery. The network must have a critpath recorder
// attached (SetCritPath) for the blame to be non-zero. On failure the
// partial blame accumulated before the abort is still returned.
func RunToCompletionBlame(net *netsim.Network, schedule Schedule) (sim.Time, critpath.Blame, error) {
	start := net.Scheduler().Now()
	var end sim.Time
	op := Start(net, schedule, func(op *Op) { end = op.Finished() })
	net.Scheduler().Run()
	if err := net.Scheduler().Err(); err != nil {
		return 0, op.blame, err
	}
	if err := op.Err(); err != nil {
		return 0, op.blame, err
	}
	return end - start, op.blame, nil
}

// RunToCompletion is a convenience for tests and microbenchmarks on
// healthy fabrics: like RunToCompletionErr, but a failed op panics —
// callers that inject faults should use the error-returning variant.
func RunToCompletion(net *netsim.Network, schedule Schedule) sim.Time {
	t, err := RunToCompletionErr(net, schedule)
	if err != nil {
		panic(err)
	}
	return t
}

// RunConcurrently starts several schedules at once on an idle network,
// drains the scheduler, and returns each schedule's elapsed time —
// used to measure contention between concurrent collectives.
func RunConcurrently(net *netsim.Network, schedules []Schedule) []sim.Time {
	times := make([]sim.Time, len(schedules))
	ops := make([]*Op, len(schedules))
	start := net.Scheduler().Now()
	for i, s := range schedules {
		i := i
		ops[i] = Start(net, s, func(op *Op) { times[i] = op.Finished() - start })
	}
	net.Scheduler().Run()
	for _, op := range ops {
		if err := op.Err(); err != nil {
			panic(err) // healthy-fabric convenience, like RunToCompletion
		}
	}
	return times
}
