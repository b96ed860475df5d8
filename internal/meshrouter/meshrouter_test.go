package meshrouter

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSingleMessageLatency(t *testing.T) {
	// A 1-flit message over h hops: inject (1) + h channel traversals
	// + local delivery (1).
	m := New(DefaultConfig())
	msg := m.Inject(0, 2, 1) // 2 hops east
	m.Run()
	if msg.Delivered < 0 {
		t.Fatal("not delivered")
	}
	latency := msg.Delivered - msg.Injected
	if latency != 3 {
		t.Fatalf("latency = %d cycles, want 3 (2 hops + delivery)", latency)
	}
}

func TestMessageSerialization(t *testing.T) {
	// A long message's delivery time grows by one cycle per flit.
	m := New(DefaultConfig())
	msg := m.Inject(0, 1, 64)
	m.Run()
	latency := msg.Delivered - msg.Injected
	// 1 hop + delivery + 63 further flits.
	if latency < 64 || latency > 67 {
		t.Fatalf("latency = %d, want ≈ 65", latency)
	}
}

func TestThroughputLineRate(t *testing.T) {
	// Back-to-back messages on one path sustain one flit per cycle.
	m := New(DefaultConfig())
	const n = 16
	var last *Message
	for i := 0; i < n; i++ {
		last = m.Inject(0, 4, 8) // along the top row
	}
	cycles, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	_ = last
	// 128 flits over a 4-hop path: pipeline depth + 128 cycles.
	if cycles > 128+12 {
		t.Fatalf("cycles = %d; line rate not sustained", cycles)
	}
}

func TestFairSharingAtContendedChannel(t *testing.T) {
	// Two streams (0→2 and 5→2... choose routes converging on one
	// channel): 0→2 goes east along row 0; 1→2 shares the 1→2 channel.
	m := New(DefaultConfig())
	a := m.Inject(0, 2, 40)
	b := m.Inject(1, 2, 40)
	m.Run()
	// Both need channel 1→2 (40 flits each): 80 flits serialized, so
	// both finish near cycle 80, not 40.
	if a.Delivered < 75 && b.Delivered < 75 {
		t.Fatalf("contention unmodelled: a=%d b=%d", a.Delivered, b.Delivered)
	}
	// Round-robin fairness: completions within ~a message of each other.
	diff := a.Delivered - b.Delivered
	if diff < 0 {
		diff = -diff
	}
	if diff > 45 {
		t.Fatalf("unfair arbitration: a=%d b=%d", a.Delivered, b.Delivered)
	}
}

func TestDisjointPathsDontInterfere(t *testing.T) {
	m := New(DefaultConfig())
	a := m.Inject(0, 4, 32)   // row 0
	b := m.Inject(15, 19, 32) // row 3
	m.Run()
	if a.Delivered > 40 || b.Delivered > 40 {
		t.Fatalf("disjoint streams interfered: %d, %d", a.Delivered, b.Delivered)
	}
}

func TestXYRouteMatchesTopology(t *testing.T) {
	// The router's hop sequence is X-then-Y, matching topology.Mesh.
	m := New(DefaultConfig())
	// 0 (0,0) → 13 (3,2): 3 east + 2 south = 5 hops.
	msg := m.Inject(0, 13, 1)
	m.Run()
	if got := msg.Delivered - msg.Injected; got != 6 {
		t.Fatalf("latency = %d, want 5 hops + delivery", got)
	}
	// Channel utilisation confirms the X-first path.
	if m.ChannelBusy(0, East) != 1 || m.ChannelBusy(1, East) != 1 || m.ChannelBusy(2, East) != 1 {
		t.Fatal("eastward row hops missing")
	}
	if m.ChannelBusy(3, South) != 1 || m.ChannelBusy(8, South) != 1 {
		t.Fatal("southward column hops missing")
	}
	if m.ChannelBusy(0, South) != 0 {
		t.Fatal("Y-first hop taken")
	}
}

func TestSelfMessageDeliversLocally(t *testing.T) {
	m := New(DefaultConfig())
	msg := m.Inject(7, 7, 4)
	m.Run()
	if msg.Delivered < 0 {
		t.Fatal("self message lost")
	}
}

// TestHealthyRoutingUnchangedByFaultMachinery: a message takes the
// strict X-first path, with no Y-first hop.
func TestHealthyRoutingUnchangedByFaultMachinery(t *testing.T) {
	m := New(DefaultConfig())
	msg := m.Inject(0, 13, 1)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	// 3 east, then 2 south (see TestXYRouteMatchesTopology).
	if got := msg.Delivered - msg.Injected; got != 6 {
		t.Fatalf("latency = %d, want 6", got)
	}
	if m.ChannelBusy(0, South) != 0 {
		t.Fatal("Y-first hop taken")
	}
}

func TestPermutationTrafficDrains(t *testing.T) {
	// Random permutation traffic must drain without deadlock (X-Y is
	// deadlock-free), with every message delivered.
	rng := rand.New(rand.NewSource(5))
	m := New(DefaultConfig())
	perm := rng.Perm(20)
	var msgs []*Message
	for src, dst := range perm {
		msgs = append(msgs, m.Inject(src, dst, 16))
	}
	m.Run()
	for i, msg := range msgs {
		if msg.Delivered < 0 {
			t.Fatalf("message %d undelivered", i)
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	for _, cfg := range []Config{{W: 1, H: 4, BufferFlits: 2}, {W: 4, H: 4, BufferFlits: 0}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
	m := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Error("zero-flit message did not panic")
		}
	}()
	m.Inject(0, 1, 0)
}

func TestDirectionStrings(t *testing.T) {
	if Local.String() != "local" || East.String() != "east" || West.String() != "west" ||
		North.String() != "north" || South.String() != "south" {
		t.Fatal("direction names")
	}
}

// Property: any batch of random messages drains with every flit
// delivered exactly once (conservation + deadlock freedom).
func TestPropertyRandomTrafficDelivers(t *testing.T) {
	f := func(seed int64, nSel uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(DefaultConfig())
		n := int(nSel%30) + 1
		var msgs []*Message
		total := 0
		for i := 0; i < n; i++ {
			fl := rng.Intn(20) + 1
			total += fl
			msgs = append(msgs, m.Inject(rng.Intn(20), rng.Intn(20), fl))
		}
		m.Run()
		deliveredFlits := 0
		for i, msg := range msgs {
			if msg.Delivered < 0 {
				return false
			}
			deliveredFlits += m.delivered[i]
		}
		return deliveredFlits == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: per source, messages arrive at their shared destination in
// injection order (wormhole keeps packets contiguous; X-Y is a single
// deterministic path).
func TestPropertyInOrderPerPair(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := New(DefaultConfig())
		src, dst := rng.Intn(20), rng.Intn(20)
		var msgs []*Message
		for i := 0; i < 6; i++ {
			msgs = append(msgs, m.Inject(src, dst, rng.Intn(8)+1))
		}
		m.Run()
		for i := 1; i < len(msgs); i++ {
			if msgs[i].Delivered <= msgs[i-1].Delivered {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
