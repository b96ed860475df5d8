package meshrouter

import (
	"fmt"
	"math/rand"
	"testing"
)

func mustRun(t *testing.T, m *Mesh) int {
	t.Helper()
	cycles, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	return cycles
}

func TestDetourAroundFailedChannel(t *testing.T) {
	// Healthy X-Y latency for 0→2 is 3 cycles (2 hops + delivery).
	healthy := New(DefaultConfig())
	ref := healthy.Inject(0, 2, 1)
	mustRun(t, healthy)

	m := New(DefaultConfig())
	m.FailLink(1, 2) // cut the second eastward hop of the X-Y route
	msg := m.Inject(0, 2, 1)
	mustRun(t, m)
	if msg.Delivered < 0 {
		t.Fatal("message lost on degraded mesh")
	}
	if got, want := msg.Delivered-msg.Injected, ref.Delivered-ref.Injected; got <= want {
		t.Fatalf("detour latency %d not above X-Y latency %d", got, want)
	}
	// The detour must not use the dead channel.
	if m.ChannelBusy(1, East) != 0 {
		t.Fatal("flit crossed the failed channel")
	}
}

func TestHealthyRoutingUnchangedByFaultMachinery(t *testing.T) {
	m := New(DefaultConfig())
	msg := m.Inject(0, 13, 1)
	mustRun(t, m)
	// Still strict X-first: 3 east, then 2 south (see
	// TestXYRouteMatchesTopology).
	if got := msg.Delivered - msg.Injected; got != 6 {
		t.Fatalf("latency = %d, want 6", got)
	}
	if m.ChannelBusy(0, South) != 0 {
		t.Fatal("Y-first hop taken on a healthy mesh")
	}
}

func TestUnroutableMessageReported(t *testing.T) {
	m := New(DefaultConfig())
	m.FailRouter(0) // isolate the corner NPU
	m.Inject(0, 19, 4)
	_, err := m.Run()
	ue, ok := err.(*UnroutableError)
	if !ok {
		t.Fatalf("got %v, want UnroutableError", err)
	}
	if ue.Src != 0 || ue.Dst != 19 || ue.Msg != 0 {
		t.Fatalf("error = %+v, want message 0, 0 -> 19", ue)
	}
}

func TestIsolatedSelfMessageStillDelivers(t *testing.T) {
	m := New(DefaultConfig())
	m.FailRouter(7)
	msg := m.Inject(7, 7, 4)
	mustRun(t, m)
	if msg.Delivered < 0 {
		t.Fatal("self message lost on an isolated router")
	}
}

func TestFailChannelPanicsOffMesh(t *testing.T) {
	m := New(DefaultConfig())
	for _, f := range []func(){
		func() { m.FailChannel(0, West) },
		func() { m.FailChannel(0, Local) },
		func() { m.FailLink(0, 2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad fault target did not panic")
				}
			}()
			f()
		}()
	}
}

// TestDegradedPermutationDrains: permutation traffic on a mesh with a
// few failed links either drains completely or reports an error —
// never silent loss, never a panic.
func TestDegradedPermutationDrains(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := New(DefaultConfig())
		// Fail two distinct links away from each other.
		x := 1 + rng.Intn(2)
		m.FailLink(m.index(x, 0), m.index(x+1, 0))
		m.FailLink(m.index(0, 2), m.index(0, 3))
		var msgs []*Message
		for src, dst := range rng.Perm(20) {
			msgs = append(msgs, m.Inject(src, dst, 8))
		}
		if _, err := m.Run(); err != nil {
			t.Logf("seed %d: degraded mesh reported %v", seed, err)
			continue
		}
		for i, msg := range msgs {
			if msg.Delivered < 0 {
				t.Fatalf("seed %d: message %d silently lost", seed, i)
			}
		}
	}
}

func TestChannelFailedAccessor(t *testing.T) {
	m := New(DefaultConfig())
	if m.ChannelFailed(0, East) {
		t.Fatal("healthy channel reported failed")
	}
	m.FailChannel(0, East)
	if !m.ChannelFailed(0, East) {
		t.Fatal("failed channel reported healthy")
	}
	if m.ChannelFailed(1, West) {
		t.Fatal("FailChannel is directed; reverse channel should be alive")
	}
}

// FailLink fails both directed channels between the adjacent nodes a
// and b, modelling the loss of a physical mesh link. It panics if the
// nodes are not neighbors.
func (m *Mesh) FailLink(a, b int) {
	for _, d := range []Direction{East, West, South, North} {
		if n, ok := m.neighbor(a, d); ok && n == b {
			m.FailChannel(a, d)
			m.FailChannel(b, opposite(d))
			return
		}
	}
	panic(fmt.Sprintf("meshrouter: FailLink(%d, %d): nodes are not adjacent", a, b))
}

// FailRouter fails every channel into and out of a node, modelling a
// dead router (the attached NPU can still deliver to itself).
func (m *Mesh) FailRouter(node int) {
	for _, d := range []Direction{East, West, South, North} {
		if n, ok := m.neighbor(node, d); ok {
			m.FailChannel(node, d)
			m.FailChannel(n, opposite(d))
		}
	}
}
