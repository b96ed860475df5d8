package training

// Critpath integration: the executor records each timeline's execution
// chain — compute spans and blocking waits, in timeline order — into
// critpath Segments and the shared DAG, behind the usual nil-recorder
// zero-cost guard. A recorder is adopted from the wafer's network
// (netsim.SetCritPath); when none is attached, every hook here is a
// branch and nothing else.

import (
	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/sim"
)

// waitBlame decomposes a blocked window of length w starting at t0 by
// the collective op that released it: the overlap of the window with
// the op's lifetime inherits the op's blame ratios (scaled to sum
// exactly), and the non-overlapping remainder — waiting for the op to
// even start, i.e. dependency ordering or arbitration queueing — is
// serialized.
func waitBlame(w float64, t0 sim.Time, op *collective.Op) critpath.Blame {
	if w <= 0 {
		return critpath.Blame{}
	}
	if op == nil {
		return critpath.Blame{Serial: w}
	}
	from := op.Started()
	if t0 > from {
		from = t0
	}
	ov := op.Finished() - from
	if ov < 0 {
		ov = 0
	}
	if ov > w {
		ov = w
	}
	b := op.Blame().Split(ov)
	b.Serial += w - ov
	return b
}

// opLabel names a wait by the op that released it, falling back when
// the schedule was empty (nil op).
func opLabel(op *collective.Op, fallback string) string {
	if op != nil {
		return op.Name()
	}
	return fallback
}

// segRecorder builds one execution chain's critpath segments: each add
// appends a Segment, mirrors it as a DAG node, seq-chains it to the
// chain's previous node, and optionally dep-links it to the node whose
// completion released it. The zero value with a nil rec records
// nothing.
type segRecorder struct {
	rec  *critpath.Recorder
	segs []critpath.Segment
	last critpath.NodeID
}

// add records one chain interval. dep, when non-zero, is the DAG node
// (an op, a flow) whose completion released this interval.
func (s *segRecorder) add(kind critpath.Kind, class, label string, t0, t1 sim.Time, b critpath.Blame, bindLink string, dep critpath.NodeID) {
	if s.rec == nil {
		return
	}
	s.segs = append(s.segs, critpath.Segment{
		Kind:     kind.String(),
		Label:    label,
		Class:    class,
		Start:    t0,
		End:      t1,
		Blame:    b,
		BindLink: bindLink,
	})
	id := s.rec.Add(critpath.Node{
		Kind:     kind,
		Label:    label,
		Start:    t0,
		End:      t1,
		Blame:    b,
		BindLink: bindLink,
	})
	s.rec.Edge(critpath.EdgeSeq, s.last, id)
	s.rec.Edge(critpath.EdgeDep, dep, id)
	s.last = id
}

// compute records a compute span (zero blame: its whole duration is
// compute).
func (s *segRecorder) compute(label string, t0, t1 sim.Time) {
	s.add(critpath.KindCompute, "", label, t0, t1, critpath.Blame{}, "", 0)
}

// opWait records a blocked window released by a collective op.
func (s *segRecorder) opWait(class Class, label string, t0, t1 sim.Time, op *collective.Op) {
	var node critpath.NodeID
	var bind string
	if op != nil {
		node = op.CritNode()
		bind = op.BindLink()
	}
	s.add(critpath.KindWait, class.String(), label, t0, t1, waitBlame(t1-t0, t0, op), bind, node)
}

// buildIteration analyzes the recorded chain into the report's
// Iteration, stamping the DAG-wide statistics.
func (x *executor) buildIteration(total float64, segs []critpath.Segment) *critpath.Iteration {
	it := critpath.BuildIteration("", total, segs)
	it.LongestChain = x.crit.LongestChain()
	it.MaxCausalDepth = x.sched.MaxCausalDepth()
	it.DagNodes = x.crit.NodeCount()
	it.DagEdges = x.crit.EdgeCount()
	return &it
}
