package fred

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// ConflictError reports that the conflict graph at some recursion
// level could not be colored with m colors (Section 5.3, Figure 7(j)).
type ConflictError struct {
	// Level is the recursion depth at which coloring failed (0 is the
	// outermost input/output stage).
	Level int
	// Flows are the original flow indices involved at that level.
	Flows []int
	// M is the number of available colors (middle subnetworks).
	M int
	// FailedMiddles counts middle subnetworks out of service at the
	// failing level (see FailElement); the palette really had
	// M − FailedMiddles colors.
	FailedMiddles int
}

func (e *ConflictError) Error() string {
	if e.FailedMiddles > 0 {
		return fmt.Sprintf("fred: routing conflict at level %d: flows %v cannot be %d-colored (%d of %d middles failed)",
			e.Level, e.Flows, e.M-e.FailedMiddles, e.FailedMiddles, e.M)
	}
	return fmt.Sprintf("fred: routing conflict at level %d: flows %v cannot be %d-colored",
		e.Level, e.Flows, e.M)
}

// Plan is a complete routing of a set of flows through an
// interconnect: the configuration of every element plus the
// middle-stage assignment decisions taken along the way.
type Plan struct {
	ic     *Interconnect
	flows  []Flow
	config map[int][]Connection // element ID → connections

	// Assignments records, per recursion level, each flow's chosen
	// middle subnetwork, in the form "level/path → flow → color".
	Assignments []Assignment
}

// Assignment records one middle-stage choice for one flow.
type Assignment struct {
	Level int
	Path  string // e.g. "mid[1]." prefixes identify the subnetwork
	Flow  int    // index into the routed flow slice
	Color int    // chosen middle subnetwork
}

// Flows returns the flows this plan routes.
func (p *Plan) Flows() []Flow { return p.flows }

// Connections returns the configured connections of one element.
func (p *Plan) Connections(elemID int) []Connection { return p.config[elemID] }

// ActiveReductions counts connections with the reduction feature
// activated (the highlighted R/RD µswitches of Figure 7(h)).
func (p *Plan) ActiveReductions() int {
	n := 0
	for _, conns := range p.config {
		for _, c := range conns {
			if c.Reduces() {
				n++
			}
		}
	}
	return n
}

// ActiveDistributions counts connections with the distribution feature
// activated.
func (p *Plan) ActiveDistributions() int {
	n := 0
	for _, conns := range p.config {
		for _, c := range conns {
			if c.Distributes() {
				n++
			}
		}
	}
	return n
}

// String renders the plan's per-element configuration, for debugging
// and the routing-explorer CLI.
func (p *Plan) String() string {
	var b strings.Builder
	ids := make([]int, 0, len(p.config))
	for id := range p.config {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		e := p.ic.element(id)
		for _, c := range p.config[id] {
			feat := ""
			if c.Reduces() && c.Distributes() {
				feat = " [RD]"
			} else if c.Reduces() {
				feat = " [R]"
			} else if c.Distributes() {
				feat = " [D]"
			}
			fmt.Fprintf(&b, "%-20s %v -> %v flow=%d%s\n", e.Label, sortedCopy(c.In), sortedCopy(c.Out), c.Flow, feat)
		}
	}
	return b.String()
}

// localFlow is a flow projected into one recursion level: the ports
// are local to the sub-interconnect, id tracks the original flow.
type localFlow struct {
	id       int
	ips, ops []int
}

// Route routes the given flows concurrently through the interconnect
// (Section 5.2). It returns a *ConflictError if the flows cannot all
// be routed at once — the routing-conflict condition of Section 5.3.
func (ic *Interconnect) Route(flows []Flow) (*Plan, error) {
	if err := validateFlows(ic.p, flows); err != nil {
		return nil, err
	}
	plan := &Plan{ic: ic, flows: flows}
	local := make([]localFlow, len(flows))
	for i, f := range flows {
		local[i] = localFlow{id: i, ips: sortedCopy(f.IPs), ops: sortedCopy(f.OPs)}
	}
	ic.pending = ic.pending[:0]
	err := ic.routeStage(ic.root, local, plan, 0, "")
	if err == nil {
		plan.config = groupConns(ic.pending)
	}
	clear(ic.pending) // drop the port lists until the next Route
	if err != nil {
		return nil, err
	}
	// Validate the produced configuration element by element.
	for id, conns := range plan.config {
		if err := validateConnections(ic.element(id), conns); err != nil {
			return nil, fmt.Errorf("fred: internal error: %w", err)
		}
	}
	return plan, nil
}

// MustRoute is Route but panics on error, for examples and tests of
// known-routable patterns.
func (ic *Interconnect) MustRoute(flows []Flow) *Plan {
	p, err := ic.Route(flows)
	if err != nil {
		panic(err)
	}
	return p
}

// elemConn is one connection routeStage configured on element elem.
type elemConn struct {
	elem int
	c    Connection
}

// addConn records a connection on element e. Route groups the recorded
// connections per element once routing is done (groupConns).
func (ic *Interconnect) addConn(e *Element, c Connection) {
	ic.pending = append(ic.pending, elemConn{elem: e.ID, c: c})
}

// groupConns builds Plan.config from the connections in the order
// routeStage recorded them: a stable sort by element keeps each
// element's connections in recording order, and all of them share one
// backing array, each element's slice capped at its own length.
func groupConns(pending []elemConn) map[int][]Connection {
	slices.SortStableFunc(pending, func(a, b elemConn) int { return cmp.Compare(a.elem, b.elem) })
	distinct := 0
	for i := range pending {
		if i == 0 || pending[i].elem != pending[i-1].elem {
			distinct++
		}
	}
	config := make(map[int][]Connection, distinct)
	conns := make([]Connection, len(pending))
	for start := 0; start < len(pending); {
		end := start
		for end < len(pending) && pending[end].elem == pending[start].elem {
			conns[end] = pending[end].c
			end++
		}
		config[pending[start].elem] = conns[start:end:end]
		start = end
	}
	return config
}

// routeStage implements the recursive routing protocol: color the
// conflict graph of the current level with m colors, configure the
// input/output µswitches (activating reduction/distribution where a
// flow owns both ports), then recurse into each middle subnetwork with
// the projected sub-flows.
func (ic *Interconnect) routeStage(st *stage, flows []localFlow, plan *Plan, level int, path string) error {
	if len(flows) == 0 {
		return nil
	}
	if st.base != nil {
		if ic.ElementFailed(st.base.ID) {
			return &DeadSwitchError{Level: level, Element: st.base.Label, Flows: flowIDs(flows)}
		}
		for _, f := range flows {
			ic.addConn(st.base, Connection{In: f.ips, Out: f.ops, Flow: f.id})
		}
		return nil
	}

	// Conflict graph: an edge joins two flows that share an input
	// µswitch or an output µswitch (Section 5.2, first intuition).
	n := len(flows)
	inSW := make([][]swUse, n)  // flow → input µswitches used, ascending
	outSW := make([][]swUse, n) // flow → output µswitches used, ascending
	oddIn := make([]bool, n)
	oddOut := make([]bool, n)
	nIn, nOut := 0, 0
	for _, f := range flows {
		nIn += len(f.ips)
		nOut += len(f.ops)
	}
	inArena := make([]swUse, 0, nIn)
	outArena := make([]swUse, 0, nOut)
	for i, f := range flows {
		inSW[i], inArena, oddIn[i] = st.switchUses(f.ips, inArena)
		outSW[i], outArena, oddOut[i] = st.switchUses(f.ops, outArena)
	}
	// A failed input/output µswitch (or odd-port mux/demux) owns its
	// external ports outright — no middle-stage spare path can bypass
	// it — so flows wired through one are dead, not re-plannable.
	if ic.failed != nil {
		for s, e := range st.inputs {
			if ic.failed[e.ID] {
				if ids := flowsUsingSwitch(flows, inSW, s); len(ids) > 0 {
					return &DeadSwitchError{Level: level, Element: e.Label, Flows: ids}
				}
			}
		}
		for s, e := range st.outputs {
			if ic.failed[e.ID] {
				if ids := flowsUsingSwitch(flows, outSW, s); len(ids) > 0 {
					return &DeadSwitchError{Level: level, Element: e.Label, Flows: ids}
				}
			}
		}
		if st.odd && ic.failed[st.demux.ID] {
			if ids := flowsWithOdd(flows, oddIn); len(ids) > 0 {
				return &DeadSwitchError{Level: level, Element: st.demux.Label, Flows: ids}
			}
		}
		if st.odd && ic.failed[st.mux.ID] {
			if ids := flowsWithOdd(flows, oddOut); len(ids) > 0 {
				return &DeadSwitchError{Level: level, Element: st.mux.Label, Flows: ids}
			}
		}
	}

	adj := make([][]bool, n)
	cells := make([]bool, n*n)
	for i := range adj {
		adj[i] = cells[i*n : (i+1)*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if shareSwitch(inSW[i], inSW[j]) || shareSwitch(outSW[i], outSW[j]) {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}

	// Clos spare paths: a middle subnetwork with an internal failure is
	// banned from the palette, and the coloring re-plans over the
	// survivors.
	banned := ic.bannedMiddles(st)
	colors, ok := ic.colorCached(adj, banned)
	if !ok {
		nBanned := 0
		for _, b := range banned {
			if b {
				nBanned++
			}
		}
		return &ConflictError{Level: level, Flows: flowIDs(flows), M: ic.m, FailedMiddles: nBanned}
	}

	// Configure this level and project sub-flows per middle subnetwork.
	// A flow's µswitches are visited in ascending order, so its sub-flow
	// ports come out sorted, the odd port (index r) last. Every port
	// list this level creates is carved from one arena: a flow port
	// costs at most three entries (its µswitch-local port, the µswitch's
	// color port and the sub-flow port).
	ints := intArena(make([]int, 0, 3*(nIn+nOut)))
	sub := make([][]localFlow, ic.m)
	for i, f := range flows {
		c := colors[i]
		plan.Assignments = append(plan.Assignments, Assignment{Level: level, Path: path, Flow: f.id, Color: c})
		for _, u := range inSW[i] {
			ic.addConn(st.inputs[u.sw], Connection{In: ints.ports(u.mask), Out: ints.take(c), Flow: f.id})
		}
		if oddIn[i] {
			ic.addConn(st.demux, Connection{In: ints.take(0), Out: ints.take(c), Flow: f.id})
		}
		for _, u := range outSW[i] {
			ic.addConn(st.outputs[u.sw], Connection{In: ints.take(c), Out: ints.ports(u.mask), Flow: f.id})
		}
		if oddOut[i] {
			ic.addConn(st.mux, Connection{In: ints.take(c), Out: ints.take(0), Flow: f.id})
		}
		sub[c] = append(sub[c], localFlow{
			id:  f.id,
			ips: ints.subPorts(inSW[i], oddIn[i], st.r),
			ops: ints.subPorts(outSW[i], oddOut[i], st.r),
		})
	}
	for c, flows := range sub {
		if len(flows) == 0 {
			continue
		}
		midPath := path + "mid[" + strconv.Itoa(c) + "]."
		if err := ic.routeStage(st.middles[c], flows, plan, level+1, midPath); err != nil {
			return err
		}
	}
	return nil
}

// swUse records that a flow uses first- or last-stage µswitch sw
// through the local ports set in mask (bit 0 for port 0, bit 1 for
// port 1).
type swUse struct {
	sw   int
	mask uint8
}

// intArena hands out port lists carved from one preallocated slice.
// Each list is capped at its own length, so appending to one never
// overwrites the next.
type intArena []int

// take appends vals and returns them as a list of their own.
func (a *intArena) take(vals ...int) []int {
	start := len(*a)
	*a = append(*a, vals...)
	return (*a)[start:len(*a):len(*a)]
}

// ports returns the µswitch-local ports set in mask, ascending.
func (a *intArena) ports(mask uint8) []int {
	switch mask {
	case 1:
		return a.take(0)
	case 2:
		return a.take(1)
	}
	return a.take(0, 1)
}

// subPorts returns a flow's ports in the middle subnetwork: its
// µswitches in ascending order, then r for the odd port.
func (a *intArena) subPorts(uses []swUse, odd bool, r int) []int {
	start := len(*a)
	for _, u := range uses {
		*a = append(*a, u.sw)
	}
	if odd {
		*a = append(*a, r)
	}
	return (*a)[start:len(*a):len(*a)]
}

// switchUses appends to arena the µswitches that the stage-local ports
// (sorted ascending) occupy, one entry per µswitch in ascending order,
// and reports whether the odd port is among them. It returns the
// flow's entries and the grown arena.
func (st *stage) switchUses(ports []int, arena []swUse) (uses, grown []swUse, odd bool) {
	start := len(arena)
	for _, p := range ports {
		if st.odd && p == 2*st.r {
			odd = true
			continue
		}
		sw, bit := p/2, uint8(1)<<uint(p%2)
		if k := len(arena); k > start && arena[k-1].sw == sw {
			arena[k-1].mask |= bit
		} else {
			arena = append(arena, swUse{sw: sw, mask: bit})
		}
	}
	return arena[start:len(arena):len(arena)], arena, odd
}

// shareSwitch reports whether two ascending µswitch lists intersect.
func shareSwitch(a, b []swUse) bool {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].sw == b[j].sw:
			return true
		case a[i].sw < b[j].sw:
			i++
		default:
			j++
		}
	}
	return false
}

// flowIDs extracts the original flow indices of a level's flows.
func flowIDs(flows []localFlow) []int {
	ids := make([]int, len(flows))
	for i, f := range flows {
		ids[i] = f.id
	}
	return ids
}

// flowsUsingSwitch returns the original IDs of flows that use
// first/last-stage µswitch s.
func flowsUsingSwitch(flows []localFlow, sw [][]swUse, s int) []int {
	var ids []int
	for i := range flows {
		for _, u := range sw[i] {
			if u.sw == s {
				ids = append(ids, flows[i].id)
				break
			}
		}
	}
	return ids
}

// flowsWithOdd returns the original IDs of flows using the odd port.
func flowsWithOdd(flows []localFlow, odd []bool) []int {
	var ids []int
	for i := range flows {
		if odd[i] {
			ids = append(ids, flows[i].id)
		}
	}
	return ids
}

// colorGraph finds a proper coloring of the conflict graph with at
// most m colors via exact backtracking, visiting vertices in
// descending-degree order. banned (optional) removes colors whose
// middle subnetwork is out of service. Conflict graphs are small (one
// node per concurrent flow), so exact search is cheap and — unlike
// greedy — never reports a spurious conflict.
func colorGraph(adj [][]bool, m int, banned []bool) ([]int, bool) {
	n := len(adj)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	deg := make([]int, n)
	for i := range adj {
		for j := range adj[i] {
			if adj[i][j] {
				deg[i]++
			}
		}
	}
	sort.SliceStable(order, func(a, b int) bool { return deg[order[a]] > deg[order[b]] })

	colors := make([]int, n)
	for i := range colors {
		colors[i] = -1
	}
	var assign func(k int) bool
	assign = func(k int) bool {
		if k == n {
			return true
		}
		v := order[k]
		// Symmetry breaking: the first vertex can take color 0 only;
		// later vertices may only use colors 0..(max used + 1). Banned
		// colors break the palette's symmetry, so the pruning is only
		// sound on a healthy interconnect.
		limit := m - 1
		if banned == nil {
			maxUsed := -1
			for i := 0; i < k; i++ {
				if colors[order[i]] > maxUsed {
					maxUsed = colors[order[i]]
				}
			}
			limit = maxUsed + 1
			if limit >= m {
				limit = m - 1
			}
		}
		for c := 0; c <= limit; c++ {
			if banned != nil && banned[c] {
				continue
			}
			ok := true
			for u := 0; u < n; u++ {
				if adj[v][u] && colors[u] == c {
					ok = false
					break
				}
			}
			if ok {
				colors[v] = c
				if assign(k + 1) {
					return true
				}
				colors[v] = -1
			}
		}
		return false
	}
	if !assign(0) {
		return nil, false
	}
	return colors, true
}
