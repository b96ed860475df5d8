package fred

import "fmt"

// portRef names one output port of one element.
type portRef struct {
	elem *Element
	port int
}

// stage is the recursive structure of a Fred_m(P) interconnect level:
// either a single base RD-µswitch (P = 2), or r input µswitches, m
// middle subnetworks and r output µswitches, with a demux/mux pair for
// the odd port when P = 2r+1.
type stage struct {
	p, r    int
	odd     bool
	base    *Element // P == 2 only
	inputs  []*Element
	outputs []*Element
	demux   *Element
	mux     *Element
	middles []*stage

	extIn       []Wire    // external input i → element input port
	extOutOwner []portRef // external output j ← element output port
}

// Interconnect is a constructed Fred_m(P) switch interconnect.
type Interconnect struct {
	m, p     int
	elements []*Element
	root     *stage
	inWire   []Wire
	// failed flags elements taken out of service (FailElement), indexed
	// by element ID; nil while the interconnect is healthy.
	failed []bool
	// Coloring memo (memo.go): conflict-graph colorings keyed by packed
	// (adjacency, banned-middle set), with a reused key scratch buffer;
	// faultEpoch counts FailElement calls for plan-level caches.
	colorMemo   map[string]colorResult
	colorKeyBuf []byte
	faultEpoch  uint64
	// pending collects one Route call's connections before they are
	// grouped into the plan's per-element configuration (routing.go).
	pending []elemConn
}

// NewInterconnect constructs a Fred_m(P) interconnect. m is the number
// of middle-stage subnetworks (m = 2 is rearrangeably nonblocking for
// unicast, m ≥ 3 strict-sense nonblocking; the paper's deployment uses
// m = 3). P ≥ 2 is the port count.
func NewInterconnect(m, p int) *Interconnect {
	if m < 2 {
		panic(fmt.Sprintf("fred: middle-stage count m = %d, need ≥ 2", m))
	}
	if p < 2 {
		panic(fmt.Sprintf("fred: port count P = %d, need ≥ 2", p))
	}
	ic := &Interconnect{m: m, p: p}
	ic.root = ic.build(p, 0, "")
	ic.inWire = ic.root.extIn
	for j, owner := range ic.root.extOutOwner {
		owner.elem.OutWire[owner.port] = Wire{Elem: -1, Ext: j}
	}
	return ic
}

// M returns the middle-stage count.
func (ic *Interconnect) M() int { return ic.m }

// Ports returns the external port count P.
func (ic *Interconnect) Ports() int { return ic.p }

// Elements returns all µswitch/mux/demux instances, in construction
// order.
func (ic *Interconnect) Elements() []*Element { return ic.elements }

// NumElements returns the element count.
func (ic *Interconnect) NumElements() int { return len(ic.elements) }

func (ic *Interconnect) newElement(kind ElementKind, in, out, level int, label string) *Element {
	e := &Element{
		ID:      len(ic.elements),
		Kind:    kind,
		In:      in,
		Out:     out,
		Level:   level,
		Label:   label,
		OutWire: make([]Wire, out),
	}
	ic.elements = append(ic.elements, e)
	return e
}

// build constructs the stage for a Fred_m(p) subnetwork at the given
// recursion level.
func (ic *Interconnect) build(p, level int, prefix string) *stage {
	st := &stage{p: p}
	if p == 2 {
		st.base = ic.newElement(KindBase, 2, 2, level, prefix+"base")
		st.extIn = []Wire{{Elem: st.base.ID, Port: 0}, {Elem: st.base.ID, Port: 1}}
		st.extOutOwner = []portRef{{st.base, 0}, {st.base, 1}}
		return st
	}
	st.odd = p%2 == 1
	st.r = p / 2
	midPorts := st.r
	if st.odd {
		midPorts = st.r + 1
	}
	for i := 0; i < st.r; i++ {
		st.inputs = append(st.inputs,
			ic.newElement(KindInput, 2, ic.m, level, fmt.Sprintf("%sin[%d]", prefix, i)))
		st.outputs = append(st.outputs,
			ic.newElement(KindOutput, ic.m, 2, level, fmt.Sprintf("%sout[%d]", prefix, i)))
	}
	if st.odd {
		st.demux = ic.newElement(KindDemux, 1, ic.m, level, prefix+"demux")
		st.mux = ic.newElement(KindMux, ic.m, 1, level, prefix+"mux")
	}
	for k := 0; k < ic.m; k++ {
		st.middles = append(st.middles, ic.build(midPorts, level+1, fmt.Sprintf("%smid[%d].", prefix, k)))
	}
	// Wire input stage → middles.
	for i, in := range st.inputs {
		for k := 0; k < ic.m; k++ {
			in.OutWire[k] = st.middles[k].extIn[i]
		}
	}
	if st.odd {
		for k := 0; k < ic.m; k++ {
			st.demux.OutWire[k] = st.middles[k].extIn[st.r]
		}
	}
	// Wire middles → output stage.
	for k, mid := range st.middles {
		for j := 0; j < st.r; j++ {
			owner := mid.extOutOwner[j]
			owner.elem.OutWire[owner.port] = Wire{Elem: st.outputs[j].ID, Port: k}
		}
		if st.odd {
			owner := mid.extOutOwner[st.r]
			owner.elem.OutWire[owner.port] = Wire{Elem: st.mux.ID, Port: k}
		}
	}
	// External port mapping.
	st.extIn = make([]Wire, 0, p)
	st.extOutOwner = make([]portRef, 0, p)
	for i := 0; i < st.r; i++ {
		st.extIn = append(st.extIn,
			Wire{Elem: st.inputs[i].ID, Port: 0},
			Wire{Elem: st.inputs[i].ID, Port: 1})
		st.extOutOwner = append(st.extOutOwner,
			portRef{st.outputs[i], 0}, portRef{st.outputs[i], 1})
	}
	if st.odd {
		st.extIn = append(st.extIn, Wire{Elem: st.demux.ID, Port: 0})
		st.extOutOwner = append(st.extOutOwner, portRef{st.mux, 0})
	}
	return st
}

// element returns an element by ID.
func (ic *Interconnect) element(id int) *Element { return ic.elements[id] }

// Stats summarises an interconnect's structure.
type Stats struct {
	Ports        int
	MiddleStages int
	Elements     map[ElementKind]int
	Levels       int // recursion depth (1 = a single base µswitch)
}

// Stats returns structural counts for reports and sizing.
func (ic *Interconnect) Stats() Stats {
	st := Stats{Ports: ic.p, MiddleStages: ic.m, Elements: make(map[ElementKind]int)}
	for _, e := range ic.elements {
		st.Elements[e.Kind]++
		if e.Level+1 > st.Levels {
			st.Levels = e.Level + 1
		}
	}
	return st
}

// String renders the interconnect like
// "Fred_3(12): 5 levels, 26 R-µswitches, ...".
func (ic *Interconnect) String() string {
	st := ic.Stats()
	return fmt.Sprintf("Fred_%d(%d): %d levels, %d R, %d D, %d RD, %d mux/demux",
		ic.m, ic.p, st.Levels,
		st.Elements[KindInput], st.Elements[KindOutput], st.Elements[KindBase],
		st.Elements[KindMux]+st.Elements[KindDemux])
}
