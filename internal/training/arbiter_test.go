package training

import (
	"slices"
	"testing"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// arbiterRig drives an arbiter on its own. Submissions are tagged by
// node index, and the done callback records each index's completion
// time and the completion order.
type arbiterRig struct {
	sched *sim.Scheduler
	comm  *collective.Comm
	arb   *arbiter
	at    map[int]sim.Time
	order []int
}

func newRig(w topology.Wafer, net *netsim.Network) *arbiterRig {
	r := &arbiterRig{sched: net.Scheduler(), comm: collective.NewComm(w), at: map[int]sim.Time{}}
	r.arb = newArbiter(net, w.CircuitSwitched(), func(rec opRec) {
		r.at[rec.node] = r.sched.Now()
		r.order = append(r.order, rec.node)
	})
	return r
}

// newArbiterRig builds a Fred-D fabric with its arbiter on a fresh
// scheduler.
func newArbiterRig() *arbiterRig {
	net := netsim.New(sim.NewScheduler())
	return newRig(topology.NewFredVariant(net, topology.FredD), net)
}

func (r *arbiterRig) submit(node int, class Class, s collective.Schedule) {
	r.arb.submit(opRec{node: node, class: class, s: s, t0: r.sched.Now()})
}

// done returns when node completed, -1 if it never did.
func (r *arbiterRig) done(node int) sim.Time {
	if t, ok := r.at[node]; ok {
		return t
	}
	return -1
}

func TestArbiterRunsSingleOp(t *testing.T) {
	r := newArbiterRig()
	// 3 TB across a leaf at 3 TB/s ≈ 1 s.
	r.submit(0, ClassMP, r.comm.AllReduce([]int{0, 1, 2, 3}, 3e12))
	r.sched.Run()
	if done := r.done(0); done < 0.99 || done > 1.01 {
		t.Fatalf("MP op finished at %g, want ≈ 1", done)
	}
}

func TestArbiterMPPreemptsDP(t *testing.T) {
	r := newArbiterRig()
	const dp, mp = 0, 1
	// DP (in-network, 1.719 TB at 3 TB/s) needs ≈ 0.573 s alone. At
	// t=0.25 an MP op needing ≈ 0.333 s arrives: it preempts; DP
	// resumes after and finishes ≈ 0.573 + 0.333 ≈ 0.91 s.
	r.submit(dp, ClassDP, r.comm.AllReduce([]int{0, 4, 8, 12, 16}, 1.719e12))
	r.sched.At(0.25, func() {
		r.submit(mp, ClassMP, r.comm.AllReduce([]int{1, 2, 3}, 1e12))
	})
	r.sched.Run()
	mpDone, dpDone := r.done(mp), r.done(dp)
	if mpDone < 0 || dpDone < 0 {
		t.Fatalf("ops missing: MP %g DP %g", mpDone, dpDone)
	}
	// MP runs immediately on arrival: done ≈ 0.25 + 0.333.
	if mpDone > 0.6 {
		t.Fatalf("MP finished at %g; preemption did not prioritise it", mpDone)
	}
	// DP lost the MP duration: solo 0.573 + 0.333 ≈ 0.91.
	if dpDone < 0.85 || dpDone > 1.0 {
		t.Fatalf("DP finished at %g, want ≈ 0.91 (preempted)", dpDone)
	}
}

func TestArbiterDPWaitsForMP(t *testing.T) {
	r := newArbiterRig()
	const mp, dp = 0, 1
	r.submit(mp, ClassMP, r.comm.AllReduce([]int{0, 1, 2, 3}, 3e12))
	r.submit(dp, ClassDP, r.comm.AllReduce([]int{4, 5, 6, 7}, 3e11))
	r.sched.Run()
	// DP (0.1 s solo) must start only after MP's 1 s.
	if !slices.Equal(r.order, []int{mp, dp}) {
		t.Fatalf("completion order %v, want MP (%d) before DP (%d)", r.order, mp, dp)
	}
}

func TestArbiterSameClassConcurrent(t *testing.T) {
	r := newArbiterRig()
	// Two MP ops on disjoint leaves run concurrently: both ≈ 1 s.
	r.submit(0, ClassMP, r.comm.AllReduce([]int{0, 1, 2, 3}, 3e12))
	r.submit(1, ClassMP, r.comm.AllReduce([]int{4, 5, 6, 7}, 3e12))
	r.sched.Run()
	if t1, t2 := r.done(0), r.done(1); t1 < 0 || t2 < 0 || t1 > 1.01 || t2 > 1.01 {
		t.Fatalf("same-class ops serialized: %g, %g", t1, t2)
	}
}

func TestArbiterPPBetweenMPAndDP(t *testing.T) {
	r := newArbiterRig()
	const mp, pp, dp = 0, 1, 2
	r.submit(dp, ClassDP, r.comm.AllReduce([]int{0, 4, 8, 12}, 1e12))
	r.sched.At(0.01, func() {
		r.submit(pp, ClassPP, r.comm.Multicast(1, []int{2, 3}, 1e12))
		r.submit(mp, ClassMP, r.comm.AllReduce([]int{16, 17, 18}, 1e12))
	})
	r.sched.Run()
	if !slices.Equal(r.order, []int{mp, pp, dp}) {
		t.Fatalf("priority order %v, want MP, PP, DP (%d, %d, %d)", r.order, mp, pp, dp)
	}
}

func TestArbiterEmptyScheduleCompletesAsync(t *testing.T) {
	r := newArbiterRig()
	r.submit(0, ClassMP, r.comm.AllReduce([]int{5}, 1e9))
	if r.done(0) >= 0 {
		t.Fatal("empty schedule completed synchronously")
	}
	r.sched.Run()
	if r.done(0) < 0 {
		t.Fatal("empty schedule never completed")
	}
}

func TestArbiterStreamBypasses(t *testing.T) {
	// Streaming traffic is not arbitrated: it proceeds concurrently
	// with MP work on its own virtual circuits.
	r := newArbiterRig()
	const mp, stream = 0, 1
	r.submit(mp, ClassMP, r.comm.AllReduce([]int{0, 1, 2, 3}, 3e12))
	r.submit(stream, ClassStream, r.comm.P2P(16, 19, 3e12))
	r.sched.Run()
	if d := r.done(stream); d < 0 || d > 1.01 {
		t.Fatalf("stream transfer serialized behind MP: %g", d)
	}
	if d := r.done(mp); d < 0 || d > 1.01 {
		t.Fatalf("MP slowed by stream: %g", d)
	}
}

func TestMeshArbiterSharesEverything(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	r := newRig(topology.NewMesh(net, topology.DefaultMeshConfig()), net)
	if r.arb.circuit {
		t.Fatal("mesh arbiter arbitrates")
	}
	// Two ops on the same links share bandwidth (packet switching):
	// both finish at ~2× their solo time.
	r.submit(0, ClassMP, r.comm.P2P(0, 1, 750e9))
	r.submit(1, ClassDP, r.comm.P2P(0, 1, 750e9))
	r.sched.Run()
	if t1, t2 := r.done(0), r.done(1); t1 < 1.9 || t2 < 1.9 {
		t.Fatalf("mesh ops did not share: %g, %g", t1, t2)
	}
}

func TestArbiterPreemptionPreservesBytes(t *testing.T) {
	// A preempted-and-resumed op must take (solo time + preemption
	// window), not restart from scratch.
	r := newArbiterRig()
	const dp, mp = 0, 1
	r.submit(dp, ClassDP, r.comm.AllReduce([]int{0, 4, 8, 12, 16}, 1.719e12))
	// Inject an MP op at t=0.5 lasting ≈ 0.75 s.
	r.sched.At(0.5, func() {
		r.submit(mp, ClassMP, r.comm.AllReduce([]int{1, 2, 3}, 2.25e12))
	})
	r.sched.Run()
	// DP solo ≈ 0.573 s; + 0.75 s preemption ≈ 1.32 s (±latency).
	if dpDone := r.done(dp); dpDone < 1.25 || dpDone > 1.45 {
		t.Fatalf("preempted DP finished at %g, want ≈ 1.32", dpDone)
	}
}
