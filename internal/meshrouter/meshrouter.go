// Package meshrouter is a cycle-accurate, flit-level model of the
// baseline wafer's 2D-mesh network-on-wafer: one router per NPU with
// five ports (North/South/East/West/Local), X-Y dimension-order
// routing (deadlock-free, as used by the paper's baseline and real
// systems, Section 7.2), wormhole switching with credit-based
// backpressure, and round-robin output arbitration.
//
// The flow-level simulator (internal/netsim) abstracts mesh links as
// fair-shared pipes; this package validates that abstraction from
// below: a contended channel really is time-shared ~fairly by the
// router's arbiter, X-Y routes match the topology's, and permutation
// traffic drains without deadlock.
package meshrouter

import "fmt"

// Direction indexes a router port.
type Direction int

// Router ports.
const (
	Local Direction = iota
	North
	South
	East
	West
	numPorts
)

func (d Direction) String() string {
	switch d {
	case Local:
		return "local"
	case North:
		return "north"
	case South:
		return "south"
	case East:
		return "east"
	case West:
		return "west"
	}
	return fmt.Sprintf("Direction(%d)", int(d))
}

// Config parameterizes the mesh NoC.
type Config struct {
	W, H int
	// BufferFlits is each input port's FIFO capacity.
	BufferFlits int
}

// DefaultConfig returns the baseline's 5×4 mesh with 4-flit input
// buffers (two 512 B flits of slack beyond the 2-flit credit loop).
func DefaultConfig() Config { return Config{W: 5, H: 4, BufferFlits: 4} }

// flit is one unit of transfer.
type flit struct {
	msg  int // message index
	dst  int // destination NPU
	tail bool
}

// fifo is an input-port buffer: a fixed-capacity ring of BufferFlits
// entries, so moving a flit never allocates. Credit checks keep every
// push within capacity.
type fifo struct {
	buf     []flit
	head, n int
}

func (q *fifo) front() flit { return q.buf[q.head] }

func (q *fifo) push(f flit) {
	q.buf[(q.head+q.n)%len(q.buf)] = f
	q.n++
}

func (q *fifo) pop() flit {
	f := q.buf[q.head]
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return f
}

// router is one mesh node's switch.
type router struct {
	in [numPorts]fifo
	// buffered counts the flits held in all inputs; a router holding
	// none can grant nothing, so step skips it.
	buffered int
	// outOwner[d] is the message that currently owns output d, or -1.
	outOwner [numPorts]int
	// rrNext[d] is the round-robin arbitration pointer for output d.
	rrNext [numPorts]int
}

// Message is an injected transfer.
type Message struct {
	Src, Dst int
	Flits    int
	// Injected and Delivered are cycle stamps filled by Run.
	Injected  int
	Delivered int
}

// Mesh is the NoC simulator instance.
type Mesh struct {
	cfg     Config
	routers []*router
	msgs    []*Message
	// pending injections per source, in order: sendQ[src] lists
	// message indices.
	sendQ [][]int
	// flitsLeft tracks each message's flits not yet injected.
	flitsLeft []int
	delivered []int // flits delivered per message
	cycles    int
	// channel utilization: busy cycles per output channel, indexed
	// node*numPorts + direction (read by the tests' ChannelBusy).
	busy []int
	// moves and injections are step's per-cycle plans, kept here so
	// their backing arrays are reused from cycle to cycle.
	moves      []move
	injections []inject
}

// New creates an empty mesh NoC.
func New(cfg Config) *Mesh {
	if cfg.W < 2 || cfg.H < 2 {
		panic("meshrouter: mesh too small")
	}
	if cfg.BufferFlits < 1 {
		panic("meshrouter: need at least one buffer flit")
	}
	n := cfg.W * cfg.H
	m := &Mesh{cfg: cfg, sendQ: make([][]int, n), busy: make([]int, n*int(numPorts))}
	// One backing array holds every input ring.
	flits := make([]flit, n*int(numPorts)*cfg.BufferFlits)
	for i := 0; i < n; i++ {
		r := &router{}
		for d := range r.outOwner {
			r.outOwner[d] = -1
			r.in[d].buf, flits = flits[:cfg.BufferFlits:cfg.BufferFlits], flits[cfg.BufferFlits:]
		}
		m.routers = append(m.routers, r)
	}
	return m
}

// Inject queues a message of the given flit count from src to dst.
// Messages from one source are injected in order.
func (m *Mesh) Inject(src, dst, flits int) *Message {
	if flits < 1 {
		panic("meshrouter: message needs at least one flit")
	}
	msg := &Message{Src: src, Dst: dst, Flits: flits, Delivered: -1}
	idx := len(m.msgs)
	m.msgs = append(m.msgs, msg)
	m.sendQ[src] = append(m.sendQ[src], idx)
	m.flitsLeft = append(m.flitsLeft, flits)
	m.delivered = append(m.delivered, 0)
	return msg
}

func (m *Mesh) coord(i int) (int, int) { return i % m.cfg.W, i / m.cfg.W }
func (m *Mesh) index(x, y int) int     { return y*m.cfg.W + x }

// xyRoute returns the output direction at node cur toward dst
// (X first).
func (m *Mesh) xyRoute(cur, dst int) Direction {
	cx, cy := m.coord(cur)
	dx, dy := m.coord(dst)
	switch {
	case dx > cx:
		return East
	case dx < cx:
		return West
	case dy > cy:
		return South
	case dy < cy:
		return North
	default:
		return Local
	}
}

// neighbor returns the node reached from cur via direction d, or
// ok = false when that step would leave the mesh.
func (m *Mesh) neighbor(cur int, d Direction) (int, bool) {
	x, y := m.coord(cur)
	switch d {
	case East:
		x++
	case West:
		x--
	case South:
		y++
	case North:
		y--
	}
	if x < 0 || x >= m.cfg.W || y < 0 || y >= m.cfg.H {
		return -1, false
	}
	return m.index(x, y), true
}

// opposite maps an output direction to the receiver's input port.
func opposite(d Direction) Direction {
	switch d {
	case East:
		return West
	case West:
		return East
	case North:
		return South
	case South:
		return North
	}
	return Local
}

// Run simulates until every injected message is delivered, returning
// the cycle count, or an error when no flit moves for a long stretch
// (a message addressed off the mesh never drains).
func (m *Mesh) Run() (int, error) {
	const stallLimit = 1 << 16
	stall := 0
	for !m.done() {
		if m.step() {
			stall = 0
		} else {
			stall++
			if stall > stallLimit {
				return m.cycles, fmt.Errorf("meshrouter: no forward progress after %d idle cycles", stallLimit)
			}
		}
		m.cycles++
	}
	return m.cycles, nil
}

func (m *Mesh) done() bool {
	for i := range m.msgs {
		if m.msgs[i].Delivered < 0 {
			return false
		}
	}
	return true
}

// move is one flit forwarded (or delivered) in a cycle.
type move struct {
	fromNode int
	fromPort Direction
	out      Direction
	toNode   int
	toPort   Direction
	deliver  bool
}

// inject is one flit entering a source's Local input in a cycle.
type inject struct {
	node int
	f    flit
	msg  int
}

// idle marks an input with no head flit in step's plan.
const idle = Direction(-1)

// step advances one cycle; returns whether any flit moved.
func (m *Mesh) step() bool {
	moves := m.moves[:0]
	// Phase 1: plan. Each output channel forwards at most one flit;
	// wormhole ownership keeps a packet contiguous; round-robin
	// arbitration picks among competing inputs. Routers holding no flit
	// are skipped, and each input's head flit is routed once.
	for node, r := range m.routers {
		if r.buffered == 0 {
			continue
		}
		// want[in] is the output the head flit of input in routes to, or
		// idle when the input is empty.
		var want [numPorts]Direction
		for in := range r.in {
			want[in] = idle
			if q := &r.in[in]; q.n > 0 {
				want[in] = m.xyRoute(node, q.front().dst)
			}
		}
		for out := Direction(0); out < numPorts; out++ {
			granted := -1
			if owner := r.outOwner[out]; owner >= 0 {
				// Find the owner's input port head flit.
				for in := Direction(0); in < numPorts; in++ {
					if want[in] == out && r.in[in].front().msg == owner {
						granted = int(in)
						break
					}
				}
				if granted < 0 {
					continue // owner's next flit not here yet
				}
			} else {
				// Round-robin over inputs with a head flit routed here.
				for k := 0; k < int(numPorts); k++ {
					in := Direction((r.rrNext[out] + k) % int(numPorts))
					if want[in] == out {
						granted = int(in)
						r.rrNext[out] = (int(in) + 1) % int(numPorts)
						break
					}
				}
				if granted < 0 {
					continue
				}
			}
			if out == Local {
				moves = append(moves, move{fromNode: node, fromPort: Direction(granted), out: Local, deliver: true})
				continue
			}
			// Credit check at the receiver.
			next, ok := m.neighbor(node, out)
			if !ok {
				continue // a destination off the mesh: the flit never drains
			}
			inPort := opposite(out)
			if m.routers[next].in[inPort].n >= m.cfg.BufferFlits {
				continue
			}
			moves = append(moves, move{fromNode: node, fromPort: Direction(granted), out: out, toNode: next, toPort: inPort})
		}
	}
	// Injections: one flit per source per cycle into the Local input,
	// respecting buffer space.
	injections := m.injections[:0]
	for src, queue := range m.sendQ {
		if len(queue) == 0 {
			continue
		}
		msgIdx := queue[0]
		if m.routers[src].in[Local].n >= m.cfg.BufferFlits {
			continue
		}
		left := m.flitsLeft[msgIdx]
		f := flit{msg: msgIdx, dst: m.msgs[msgIdx].Dst, tail: left == 1}
		injections = append(injections, inject{node: src, f: f, msg: msgIdx})
	}

	// Phase 2: commit.
	progress := false
	for _, mv := range moves {
		r := m.routers[mv.fromNode]
		f := r.in[mv.fromPort].pop()
		r.buffered--
		out := mv.out
		m.busy[mv.fromNode*int(numPorts)+int(out)]++
		if mv.deliver {
			m.delivered[f.msg]++
			if f.tail {
				m.msgs[f.msg].Delivered = m.cycles + 1
			}
		} else {
			to := m.routers[mv.toNode]
			to.in[mv.toPort].push(f)
			to.buffered++
			// Wormhole ownership: hold the channel until the tail.
			if f.tail {
				r.outOwner[out] = -1
			} else {
				r.outOwner[out] = f.msg
			}
		}
		if mv.deliver && !f.tail {
			r.outOwner[Local] = f.msg
		} else if mv.deliver && f.tail {
			r.outOwner[Local] = -1
		}
		progress = true
	}
	for _, inj := range injections {
		r := m.routers[inj.node]
		r.in[Local].push(inj.f)
		r.buffered++
		m.flitsLeft[inj.msg]--
		if m.flitsLeft[inj.msg] == 0 {
			m.sendQ[inj.node] = m.sendQ[inj.node][1:]
		}
		if m.msgs[inj.msg].Injected == 0 {
			m.msgs[inj.msg].Injected = m.cycles + 1
		}
		progress = true
	}
	m.moves, m.injections = moves, injections
	return progress
}
