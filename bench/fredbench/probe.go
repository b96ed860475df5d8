package main

import (
	"math/rand"
	"runtime"
	"sync"
	"syscall"
	"unsafe"
)

// hostProbe measures how fast the host runs simulator-like code right
// now. On a shared host the simulator's speed drifts by up to 1.5× over
// tens of seconds with other tenants' load on the cores and caches it
// shares. The probe drifts with it, and no change to the repository
// moves it: it shares no code with the simulator.
//
// Each of nproc goroutines, locked to its thread, runs a small
// discrete-event simulation written with the standard library alone —
// a heap of timed events, a map of live slots, a chain of nodes — on
// preallocated state, and the probe takes the mean thread CPU time.
// Allocating nothing and counting only its own CPU time keeps the
// probe blind to the process's garbage collector and scheduler, so it
// reads the host and not the workload. The end-to-end times are divided
// by the probe's median over the run (see bench/README.md, "Host
// normalization").
type hostProbe struct {
	sims  []*probeSim
	times []float64 // seconds of thread CPU time per probe
}

const (
	probeSteps = 8000 // events per goroutine
	// probeRefSeconds is the probe's typical time on the 2-core Xeon
	// host the benchmark was tuned on. A normalized time reads as the
	// wall-clock time on that host in its typical state.
	probeRefSeconds = 0.002
)

func newHostProbe() *hostProbe {
	p := &hostProbe{}
	for g := 0; g < nproc; g++ {
		p.sims = append(p.sims, newProbeSim())
	}
	return p
}

// run times the kernel once and records it; a nil probe does nothing.
// The caller runs it while the workload is quiet.
func (p *hostProbe) run() {
	if p == nil {
		return
	}
	cpu := make([]float64, len(p.sims))
	var wg sync.WaitGroup
	for g, s := range p.sims {
		wg.Add(1)
		go func(g int, s *probeSim) {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			t0 := threadCPUSeconds()
			s.run(int64(g))
			cpu[g] = threadCPUSeconds() - t0
		}(g, s)
	}
	wg.Wait()
	sum := 0.0
	for _, c := range cpu {
		sum += c
	}
	p.times = append(p.times, sum/float64(len(cpu)))
}

// scale is how much slower the host ran than the reference: divide a
// time by it, multiply a rate by it.
func (p *hostProbe) scale() float64 { return median(p.times) / probeRefSeconds }

// threadCPUSeconds reads the calling thread's CPU clock.
func threadCPUSeconds() float64 {
	const clockThreadCPUTimeID = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return float64(ts.Sec) + float64(ts.Nsec)*1e-9
}

// probeSim is the probe's event simulation. Each event takes a node,
// chains it to the live node of its slot, retires another slot, and
// schedules its successor. All state is allocated once and holds no
// pointers, so a run neither allocates nor meets a write barrier.
type probeSim struct {
	queue []probeEvent // a binary min-heap on t
	live  map[int32]int32
	nodes []probeNode
	links []int32
	src   rand.Source
	rng   *rand.Rand
	sink  float64
}

type probeEvent struct {
	t        float64
	id, node int32
}

type probeNode struct {
	t            float64
	next         int32
	linkAt, nLnk int32
}

func newProbeSim() *probeSim {
	s := &probeSim{
		queue: make([]probeEvent, 0, 1024),
		live:  make(map[int32]int32, 4096),
		nodes: make([]probeNode, probeSteps+1),
		links: make([]int32, 9*probeSteps),
		src:   rand.NewSource(1),
	}
	s.rng = rand.New(s.src)
	return s
}

func (s *probeSim) run(seed int64) {
	s.src.Seed(seed + 1)
	s.queue = s.queue[:0]
	clear(s.live)
	for i := int32(0); i < 512; i++ {
		s.push(probeEvent{t: s.rng.Float64(), id: i})
	}
	acc, used := 0.0, int32(0)
	for step := int32(1); step <= probeSteps; step++ {
		e := s.pop()
		n := &s.nodes[step]
		*n = probeNode{t: e.t, linkAt: used, nLnk: 4 + step%5}
		for i := n.linkAt; i < n.linkAt+n.nLnk; i++ {
			s.links[i] = step
		}
		used += n.nLnk
		slot := e.id % 4096
		if prev, ok := s.live[slot]; ok {
			n.next = prev
			acc += s.nodes[prev].t
		}
		s.live[slot] = step
		if step%3 == 0 {
			delete(s.live, e.id*7%4096)
		}
		s.push(probeEvent{t: e.t + s.rng.ExpFloat64(), id: e.id + 512, node: step})
	}
	s.sink = acc
}

func (s *probeSim) push(e probeEvent) {
	q := append(s.queue, e)
	for i := len(q) - 1; i > 0; {
		parent := (i - 1) / 2
		if q[parent].t <= q[i].t {
			break
		}
		q[parent], q[i] = q[i], q[parent]
		i = parent
	}
	s.queue = q
}

func (s *probeSim) pop() probeEvent {
	q := s.queue
	top, n := q[0], len(q)-1
	q[0], q = q[n], q[:n]
	for i := 0; ; {
		m := 2*i + 1
		if m >= n {
			break
		}
		if r := m + 1; r < n && q[r].t < q[m].t {
			m = r
		}
		if q[i].t <= q[m].t {
			break
		}
		q[i], q[m] = q[m], q[i]
		i = m
	}
	s.queue = q
	return top
}
