package meshrouter

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"
)

// runDigest injects seeded random permutation traffic (two rounds of
// messages per source, 1–24 flits each), runs it and renders every
// observable: the cycle count, each message's Injected/Delivered stamps
// and every channel's busy count.
func runDigest(t *testing.T, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := DefaultConfig()
	m := New(cfg)
	n := cfg.W * cfg.H
	var msgs []*Message
	for round := 0; round < 2; round++ {
		for src, dst := range rng.Perm(n) {
			msgs = append(msgs, m.Inject(src, dst, 1+rng.Intn(24)))
		}
	}
	cycles, err := m.Run()
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	h := sha256.New()
	fmt.Fprintf(h, "cycles=%d\n", cycles)
	for i, msg := range msgs {
		fmt.Fprintf(h, "msg %d: %d %d\n", i, msg.Injected, msg.Delivered)
	}
	for node := 0; node < n; node++ {
		for d := Local; d < numPorts; d++ {
			fmt.Fprintf(h, "busy %d %v: %d\n", node, d, m.ChannelBusy(node, d))
		}
	}
	return fmt.Sprintf("%d:%s", cycles, hex.EncodeToString(h.Sum(nil))[:16])
}

// TestRunGolden pins the router's cycle-level behaviour — recorded from
// the model that scanned every router and re-routed each head flit once
// per (output, input) pair.
func TestRunGolden(t *testing.T) {
	want := map[string]string{
		"seed=1": "80:6edeac48bda7a505",
		"seed=2": "65:b9c33349a36ae2f3",
		"seed=3": "82:e78f84e5bceeec25",
		"seed=4": "95:f9da1b5f16233d0d",
	}
	got := map[string]string{}
	for seed := int64(1); seed <= 4; seed++ {
		got[fmt.Sprintf("seed=%d", seed)] = runDigest(t, seed)
	}
	for key, g := range got {
		if want[key] != g {
			t.Errorf("%s: digest %q, want %q", key, g, want[key])
		}
	}
	if t.Failed() {
		t.Logf("got %#v", got)
	}
}

// TestPacketValidationCase pins the 3-stream shared-channel case of the
// PacketValidation study.
func TestPacketValidationCase(t *testing.T) {
	m := New(DefaultConfig())
	var msgs []*Message
	for _, src := range []int{0, 1, 2} {
		msgs = append(msgs, m.Inject(src, 3, 4096))
	}
	cycles, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	got := []int{cycles}
	for _, msg := range msgs {
		got = append(got, msg.Injected, msg.Delivered)
	}
	want := []int{12290, 1, 12290, 1, 8194, 1, 4098}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cycles and stamps %v, want %v", got, want)
	}
}

// TestWarmStepZeroAlloc: once its plan slices have grown, a cycle
// allocates nothing — input FIFOs are fixed rings and channel counters
// a dense slice.
func TestWarmStepZeroAlloc(t *testing.T) {
	m := New(DefaultConfig())
	for _, src := range []int{0, 1, 2} {
		m.Inject(src, 3, 4096)
	}
	for i := 0; i < 200; i++ {
		m.step()
		m.cycles++
	}
	allocs := testing.AllocsPerRun(200, func() {
		m.step()
		m.cycles++
	})
	if allocs != 0 {
		t.Fatalf("warm step allocates %v objects/cycle, want 0", allocs)
	}
}
