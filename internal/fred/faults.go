package fred

import "fmt"

// µswitch failures. A failed element takes all of its ports out of
// service. Routing then re-plans around the failure using the Clos
// spare paths: a failure anywhere inside middle subnetwork k removes
// color k from the palette at that stage (the conflict-graph coloring
// simply has one fewer middle to choose from), so flows keep routing
// until the surviving middles can no longer color the conflict graph.
// A failed input/output µswitch, mux or demux is different — it owns
// specific external ports, and a flow needing those ports has no spare
// path; Route reports it as a DeadSwitchError. The studies model a
// failed µswitch as degraded trunk links instead (the fault sweep), so
// only the tests fail elements here (FailElement, faults_test.go).

// DeadSwitchError reports that a flow's external ports are wired
// through a failed first/last-stage element, which no middle-stage
// spare path can bypass.
type DeadSwitchError struct {
	// Level is the recursion depth of the failed element.
	Level int
	// Element is the failed element's label.
	Element string
	// Flows are the original flow indices that need the element.
	Flows []int
}

func (e *DeadSwitchError) Error() string {
	return fmt.Sprintf("fred: flows %v require failed µswitch %s (level %d)",
		e.Flows, e.Element, e.Level)
}

// ElementFailed reports whether the element has failed.
func (ic *Interconnect) ElementFailed(id int) bool {
	return ic.failed != nil && ic.failed[id]
}

// stageFailed reports whether any element of the (sub-)stage — base,
// first/last stage, or anything deeper — has failed. Used to ban a
// middle subnetwork's color wholesale: a conservative model in which a
// middle with any internal failure is taken out of rotation, exactly
// how a Clos fabric sheds a faulty middle plane.
func (ic *Interconnect) stageFailed(st *stage) bool {
	if ic.failed == nil {
		return false
	}
	if st.base != nil {
		return ic.failed[st.base.ID]
	}
	for _, e := range st.inputs {
		if ic.failed[e.ID] {
			return true
		}
	}
	for _, e := range st.outputs {
		if ic.failed[e.ID] {
			return true
		}
	}
	if st.odd && (ic.failed[st.demux.ID] || ic.failed[st.mux.ID]) {
		return true
	}
	for _, mid := range st.middles {
		if ic.stageFailed(mid) {
			return true
		}
	}
	return false
}

// bannedMiddles returns, for one stage, which middle colors are out of
// service, or nil when all middles are healthy.
func (ic *Interconnect) bannedMiddles(st *stage) []bool {
	if ic.failed == nil {
		return nil
	}
	var banned []bool
	for k, mid := range st.middles {
		if ic.stageFailed(mid) {
			if banned == nil {
				banned = make([]bool, len(st.middles))
			}
			banned[k] = true
		}
	}
	return banned
}
