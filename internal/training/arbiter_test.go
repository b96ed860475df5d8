package training

import (
	"testing"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// newArbiterRig builds a Fred-D fabric with its arbiter on a fresh
// scheduler.
func newArbiterRig() (*sim.Scheduler, *collective.Comm, *fredArbiter) {
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	f := topology.NewFredVariant(net, topology.FredD)
	return sched, collective.NewComm(f), &fredArbiter{net: net}
}

func TestArbiterRunsSingleOp(t *testing.T) {
	sched, comm, arb := newArbiterRig()
	var done sim.Time = -1
	// 3 TB across a leaf at 3 TB/s ≈ 1 s.
	arb.submit(ClassMP, comm.AllReduce([]int{0, 1, 2, 3}, 3e12), func(*collective.Op) { done = sched.Now() })
	sched.Run()
	if done < 0.99 || done > 1.01 {
		t.Fatalf("MP op finished at %g, want ≈ 1", done)
	}
}

func TestArbiterMPPreemptsDP(t *testing.T) {
	sched, comm, arb := newArbiterRig()
	var dpDone, mpDone sim.Time
	// DP (in-network, 1.719 TB at 3 TB/s) needs ≈ 0.573 s alone. At
	// t=0.25 an MP op needing ≈ 0.333 s arrives: it preempts; DP
	// resumes after and finishes ≈ 0.573 + 0.333 ≈ 0.91 s.
	arb.submit(ClassDP, comm.AllReduce([]int{0, 4, 8, 12, 16}, 1.719e12), func(*collective.Op) { dpDone = sched.Now() })
	sched.At(0.25, func() {
		arb.submit(ClassMP, comm.AllReduce([]int{1, 2, 3}, 1e12), func(*collective.Op) { mpDone = sched.Now() })
	})
	sched.Run()
	if mpDone == 0 || dpDone == 0 {
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
	sched, comm, arb := newArbiterRig()
	var order []string
	arb.submit(ClassMP, comm.AllReduce([]int{0, 1, 2, 3}, 3e12), func(*collective.Op) { order = append(order, "MP") })
	arb.submit(ClassDP, comm.AllReduce([]int{4, 5, 6, 7}, 3e11), func(*collective.Op) { order = append(order, "DP") })
	sched.Run()
	if len(order) != 2 || order[0] != "MP" || order[1] != "DP" {
		t.Fatalf("completion order %v, want MP before DP", order)
	}
	// DP (0.1 s solo) must start only after MP's 1 s.
}

func TestArbiterSameClassConcurrent(t *testing.T) {
	sched, comm, arb := newArbiterRig()
	var t1, t2 sim.Time
	// Two MP ops on disjoint leaves run concurrently: both ≈ 1 s.
	arb.submit(ClassMP, comm.AllReduce([]int{0, 1, 2, 3}, 3e12), func(*collective.Op) { t1 = sched.Now() })
	arb.submit(ClassMP, comm.AllReduce([]int{4, 5, 6, 7}, 3e12), func(*collective.Op) { t2 = sched.Now() })
	sched.Run()
	if t1 > 1.01 || t2 > 1.01 {
		t.Fatalf("same-class ops serialized: %g, %g", t1, t2)
	}
}

func TestArbiterPPBetweenMPAndDP(t *testing.T) {
	sched, comm, arb := newArbiterRig()
	var order []string
	log := func(s string) func(*collective.Op) { return func(*collective.Op) { order = append(order, s) } }
	arb.submit(ClassDP, comm.AllReduce([]int{0, 4, 8, 12}, 1e12), log("DP"))
	sched.At(0.01, func() {
		arb.submit(ClassPP, comm.Multicast(1, []int{2, 3}, 1e12), log("PP"))
		arb.submit(ClassMP, comm.AllReduce([]int{16, 17, 18}, 1e12), log("MP"))
	})
	sched.Run()
	if len(order) != 3 {
		t.Fatalf("order %v", order)
	}
	if order[0] != "MP" || order[1] != "PP" || order[2] != "DP" {
		t.Fatalf("priority order %v, want MP, PP, DP", order)
	}
}

func TestArbiterEmptyScheduleCompletesAsync(t *testing.T) {
	sched, comm, arb := newArbiterRig()
	done := false
	arb.submit(ClassMP, comm.AllReduce([]int{5}, 1e9), func(*collective.Op) { done = true })
	if done {
		t.Fatal("empty schedule completed synchronously")
	}
	sched.Run()
	if !done {
		t.Fatal("empty schedule never completed")
	}
}

func TestArbiterStreamBypasses(t *testing.T) {
	// Streaming traffic is not arbitrated: it proceeds concurrently
	// with MP work on its own virtual circuits.
	sched, comm, arb := newArbiterRig()
	var mpDone, streamDone sim.Time
	arb.submit(ClassMP, comm.AllReduce([]int{0, 1, 2, 3}, 3e12), func(*collective.Op) { mpDone = sched.Now() })
	arb.submit(ClassStream, comm.P2P(16, 19, 3e12), func(*collective.Op) { streamDone = sched.Now() })
	sched.Run()
	if streamDone > 1.01 {
		t.Fatalf("stream transfer serialized behind MP: %g", streamDone)
	}
	if mpDone > 1.01 {
		t.Fatalf("MP slowed by stream: %g", mpDone)
	}
}

func TestMeshArbiterSharesEverything(t *testing.T) {
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	m := topology.NewMesh(net, topology.DefaultMeshConfig())
	comm := collective.NewComm(m)
	arb := meshArbiter{net: net}
	var t1, t2 sim.Time
	// Two ops on the same links share bandwidth (packet switching):
	// both finish at ~2× their solo time.
	arb.submit(ClassMP, comm.P2P(0, 1, 750e9), func(*collective.Op) { t1 = sched.Now() })
	arb.submit(ClassDP, comm.P2P(0, 1, 750e9), func(*collective.Op) { t2 = sched.Now() })
	sched.Run()
	if t1 < 1.9 || t2 < 1.9 {
		t.Fatalf("mesh ops did not share: %g, %g", t1, t2)
	}
}

func TestArbiterPreemptionPreservesBytes(t *testing.T) {
	// A preempted-and-resumed op must take (solo time + preemption
	// window), not restart from scratch.
	sched, comm, arb := newArbiterRig()
	var dpDone sim.Time
	arb.submit(ClassDP, comm.AllReduce([]int{0, 4, 8, 12, 16}, 1.719e12), func(*collective.Op) { dpDone = sched.Now() })
	// Inject an MP op at t=0.5 lasting ≈ 0.75 s.
	sched.At(0.5, func() {
		arb.submit(ClassMP, comm.AllReduce([]int{1, 2, 3}, 2.25e12), func(*collective.Op) {})
	})
	sched.Run()
	// DP solo ≈ 0.573 s; + 0.75 s preemption ≈ 1.32 s (±latency).
	if dpDone < 1.25 || dpDone > 1.45 {
		t.Fatalf("preempted DP finished at %g, want ≈ 1.32", dpDone)
	}
}
