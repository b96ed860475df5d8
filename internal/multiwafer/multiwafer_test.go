package multiwafer

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/topology"
)

func TestSystemShape(t *testing.T) {
	s := New(DefaultConfig())
	if s.Wafers() != 4 {
		t.Fatalf("wafers = %d", s.Wafers())
	}
	for k := 0; k < 18; k++ {
		npu := s.BoundaryNPU(k)
		if npu < 0 || npu >= 20 {
			t.Fatalf("boundary port %d maps to NPU %d", k, npu)
		}
	}
	// Boundary NPUs must be spread: the first five ports hit five
	// distinct leaves.
	seen := map[int]bool{}
	for k := 0; k < 5; k++ {
		seen[s.Wafer(0).L1Of(s.BoundaryNPU(k))] = true
	}
	if len(seen) != 5 {
		t.Fatalf("first 5 boundary ports use %d leaves, want 5", len(seen))
	}
}

func TestBadConfigsPanic(t *testing.T) {
	for _, cfg := range []Config{
		{Wafers: 1, Variant: topology.FredD, BoundaryPorts: 4, PortBW: 1e9},
		{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 0, PortBW: 1e9},
		{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 99, PortBW: 1e9},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("config %+v did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestGlobalAllReduceCompletes(t *testing.T) {
	s := New(DefaultConfig())
	d := s.Run(s.GlobalAllReduce(1e9))
	if d <= 0 || math.IsInf(d, 0) {
		t.Fatalf("global all-reduce time = %g", d)
	}
}

func TestHierarchicalBeatsNaive(t *testing.T) {
	// The boundary-parallel exchange uses all 18 inter-wafer ports;
	// the naive leader exchange uses one. For inter-wafer-bound sizes
	// the hierarchical collective must win by roughly the port count.
	const bytes = 10e9
	// Build separate systems so each network starts idle.
	sHier := New(DefaultConfig())
	hier := sHier.Run(sHier.GlobalAllReduce(bytes))
	sNaive := New(DefaultConfig())
	naive := sNaive.Run(sNaive.NaiveAllReduce(bytes))
	if hier >= naive {
		t.Fatalf("hierarchical (%g) not faster than naive (%g)", hier, naive)
	}
	// The inter-wafer step itself speeds up by the 18× port
	// parallelism; end to end the intra-wafer reduce/gather steps
	// (which both designs share) cap the overall gain near 6-7× at
	// these bandwidth ratios.
	gain := naive / hier
	if gain < 4 || gain > 18 {
		t.Fatalf("gain = %.1fx, expected 4-18x", gain)
	}
}

func TestInterWaferStepDominatesAtCXLRates(t *testing.T) {
	// On-wafer reduce/gather run at TB/s; the 128 GB/s inter-wafer
	// rings dominate. Check the global time is close to the analytic
	// inter-wafer ring bound: 2(W−1)/W · (D/K) / portBW.
	cfg := DefaultConfig()
	s := New(cfg)
	const bytes = 18e9
	got := s.Run(s.GlobalAllReduce(bytes))
	shard := bytes / float64(cfg.BoundaryPorts)
	// Bidirectional ring: each directed edge carries (W−1)/W · shard.
	bound := float64(cfg.Wafers-1) / float64(cfg.Wafers) * shard / cfg.PortBW
	if got < bound {
		t.Fatalf("time %g below the inter-wafer bound %g", got, bound)
	}
	if got > bound*3.5 {
		t.Fatalf("time %g far above the inter-wafer bound %g — hierarchy overhead too high", got, bound)
	}
}

func TestScalesWithWaferCount(t *testing.T) {
	// Ring all-reduce time grows with (W−1)/W — nearly flat in W; the
	// 8-wafer system must not cost 2× the 4-wafer one.
	cfg := DefaultConfig()
	s4 := New(cfg)
	t4 := s4.Run(s4.GlobalAllReduce(4e9))
	cfg.Wafers = 8
	s8 := New(cfg)
	t8 := s8.Run(s8.GlobalAllReduce(4e9))
	if t8 > t4*1.4 {
		t.Fatalf("8 wafers (%g) vs 4 wafers (%g): ring scaling broken", t8, t4)
	}
	if t8 <= t4 {
		t.Fatalf("8 wafers (%g) should be slightly slower than 4 (%g)", t8, t4)
	}
}

func TestValidateTypedErrors(t *testing.T) {
	cases := []struct {
		cfg   Config
		field string
	}{
		{Config{Wafers: 1, BoundaryPorts: 4, PortBW: 1e9}, "Wafers"},
		{Config{Wafers: 2, BoundaryPorts: 0, PortBW: 1e9}, "BoundaryPorts"},
		{Config{Wafers: 2, BoundaryPorts: 4, PortBW: 0}, "PortBW"},
		{Config{Wafers: 2, BoundaryPorts: 4, PortBW: 1e9, PortLatency: -1}, "PortLatency"},
		{Config{Wafers: 4, BoundaryPorts: 4, PortBW: 1e9, Dims: []int{4, 1}}, "Dims"},
		{Config{Wafers: 4, BoundaryPorts: 4, PortBW: 1e9, Dims: []int{2, 4}}, "Dims"},
		// Non-finite port parameters: a NaN or infinite latency stalls
		// Run forever; a NaN or infinite bandwidth times nothing real.
		{Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 4, PortBW: 1e9, PortLatency: math.NaN()}, "PortLatency"},
		{Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 4, PortBW: 1e9, PortLatency: math.Inf(1)}, "PortLatency"},
		{Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 4, PortBW: math.NaN()}, "PortBW"},
		{Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 4, PortBW: math.Inf(1)}, "PortBW"},
		// 4611686018427387905 × 4 wraps to 4: an overflowing product
		// must not pass for the wafer count.
		{Config{Wafers: 4, Variant: topology.FredD, BoundaryPorts: 4, PortBW: 1e9, Dims: []int{4611686018427387905, 4}}, "Dims"},
		// An unknown variant is an error, not a panic in the topology.
		{Config{Wafers: 2, Variant: "Fred-Z", BoundaryPorts: 4, PortBW: 1e9}, "Variant"},
		// Rejected before any wafer is built: a Fred-D wafer has 20 NPUs.
		{Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 21, PortBW: 1e9}, "BoundaryPorts"},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("config %+v: got %v, want *ConfigError", tc.cfg, err)
			continue
		}
		if ce.Field != tc.field {
			t.Errorf("config %+v: error names field %q, want %q", tc.cfg, ce.Field, tc.field)
		}
		if _, err := NewErr(tc.cfg); err == nil {
			t.Errorf("NewErr accepted invalid config %+v", tc.cfg)
		}
	}
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestHierarchicalGridShape(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Wafers = 8
	cfg.Dims = []int{4, 2}
	cfg.BoundaryPorts = 4
	s := New(cfg)
	if got := s.Dims(); len(got) != 2 || got[0] != 4 || got[1] != 2 {
		t.Fatalf("dims = %v", got)
	}
	if s.NPUCount() != 8*s.Wafer(0).NPUCount() {
		t.Fatalf("NPUCount = %d", s.NPUCount())
	}
	// Dimension 0 rings step by 1 within a group of 4; dimension 1
	// rings step by 4. Check the wrap on both.
	if n := s.neighbour(3, 0); n != 0 {
		t.Fatalf("neighbour(3, dim0) = %d, want 0", n)
	}
	if n := s.neighbour(5, 0); n != 6 {
		t.Fatalf("neighbour(5, dim0) = %d, want 6", n)
	}
	if n := s.neighbour(2, 1); n != 6 {
		t.Fatalf("neighbour(2, dim1) = %d, want 6", n)
	}
	if n := s.neighbour(6, 1); n != 2 {
		t.Fatalf("neighbour(6, dim1) = %d, want 2", n)
	}
	// Every dimension owns a full set of per-wafer per-port links, at
	// the port bandwidth split across the two dimensions.
	for d := 0; d < 2; d++ {
		for w := 0; w < 8; w++ {
			if len(s.fwd[d][w]) != 4 || len(s.rev[d][w]) != 4 {
				t.Fatalf("dim %d wafer %d: %d fwd / %d rev links", d, w, len(s.fwd[d][w]), len(s.rev[d][w]))
			}
		}
	}
	l := s.Network().Link(s.fwd[1][0][0])
	if l.Bandwidth != cfg.PortBW/2 {
		t.Fatalf("per-dim link bandwidth = %g, want %g", l.Bandwidth, cfg.PortBW/2)
	}
}

func TestHierarchicalAllReduceCompletes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Wafers = 8
	cfg.Dims = []int{4, 2}
	s := New(cfg)
	sched := s.GlobalAllReduce(1e9)
	// RS down dim 0, AR on dim 1, AG back up dim 0 → 3 inter phases
	// between the intra-wafer steps.
	if len(sched.Phases) != 5 {
		t.Fatalf("phases = %d, want 5", len(sched.Phases))
	}
	d := s.Run(sched)
	if d <= 0 || math.IsInf(d, 0) {
		t.Fatalf("hierarchical all-reduce time = %g", d)
	}
	// The naive leader exchange still loses, and by more than on the
	// flat ring: it repeats the full payload in every dimension.
	sN := New(cfg)
	naive := sN.Run(sN.NaiveAllReduce(1e9))
	if naive <= d {
		t.Fatalf("naive (%g) not slower than hierarchical (%g)", naive, d)
	}
}

func TestFlatDimsMatchesImplicit(t *testing.T) {
	// Dims=[W] must be byte-identical to the original implicit flat
	// ring: same link layout, same schedule, same simulated time.
	cfg := DefaultConfig()
	implicit := New(cfg)
	tImp := implicit.Run(implicit.GlobalAllReduce(3e9))
	cfg.Dims = []int{cfg.Wafers}
	explicit := New(cfg)
	tExp := explicit.Run(explicit.GlobalAllReduce(3e9))
	if tImp != tExp {
		t.Fatalf("explicit flat dims time %g != implicit %g", tExp, tImp)
	}
}

func TestFasterInterconnectHelps(t *testing.T) {
	cfg := DefaultConfig()
	slow := New(cfg)
	tSlow := slow.Run(slow.GlobalAllReduce(4e9))
	cfg.PortBW *= 4
	fast := New(cfg)
	tFast := fast.Run(fast.GlobalAllReduce(4e9))
	if tFast >= tSlow {
		t.Fatalf("4x inter-wafer BW did not help: %g vs %g", tFast, tSlow)
	}
}

// TestLinkNamesMatchFormat: link names are built in a reused byte
// buffer, not with fmt.Sprintf. Every link of an 8×8 system — each
// wafer's fabric links and every inter-wafer port link — must equal
// the name the old format strings produced.
func TestLinkNamesMatchFormat(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Wafers, cfg.Dims = 64, []int{8, 8}
	s := New(cfg)
	net := s.Network()
	var want []string
	fc := topology.FredVariantConfig(cfg.Variant)
	numL1 := (fc.NPUs + fc.FanIn[0] - 1) / fc.FanIn[0]
	for w := 0; w < cfg.Wafers; w++ {
		for i := 0; i < numL1; i++ {
			want = append(want, fmt.Sprintf("l1.%d->l2", i), fmt.Sprintf("l2->l1.%d", i))
		}
		for i := 0; i < fc.NPUs; i++ {
			want = append(want, fmt.Sprintf("npu%d->l1", i), fmt.Sprintf("l1->npu%d", i))
		}
		for i := 0; i < fc.IOCs; i++ {
			l1 := i % numL1
			want = append(want, fmt.Sprintf("ioc%d->l1.%d", i, l1), fmt.Sprintf("l1.%d->ioc%d", l1, i))
		}
	}
	for d := range cfg.Dims {
		for w := 0; w < cfg.Wafers; w++ {
			for k := 0; k < cfg.BoundaryPorts; k++ {
				want = append(want, fmt.Sprintf("xw%d.d%d.%d->", w, d, k), fmt.Sprintf("xw%d.d%d.%d<-", w, d, k))
			}
		}
	}
	if net.NumLinks() != len(want) {
		t.Fatalf("%d links, want %d", net.NumLinks(), len(want))
	}
	for i, name := range want {
		if got := net.Link(netsim.LinkID(i)).Name; got != name {
			t.Fatalf("link %d named %q, want %q", i, got, name)
		}
	}
	// A one-dimensional ring keeps the short port names.
	ring := New(DefaultConfig())
	for w, ports := range ring.fwd[0] {
		for k, id := range ports {
			if got, name := ring.Network().Link(id).Name, fmt.Sprintf("xw%d.%d->", w, k); got != name {
				t.Fatalf("ring link named %q, want %q", got, name)
			}
			if got, name := ring.Network().Link(ring.rev[0][w][k]).Name, fmt.Sprintf("xw%d.%d<-", w, k); got != name {
				t.Fatalf("ring link named %q, want %q", got, name)
			}
		}
	}
}

// FuzzConfig requires every configuration to come back from Validate
// and NewErr as either a *ConfigError or a System of the configured
// shape that compiles a global all-reduce, never a panic. Dims takes
// the first ndims%4 of d0, d1, d2. A system is built only for small
// accepted configurations, so no input allocates a huge fabric.
//
// Explore with: go test -run='^$' -fuzz=FuzzConfig ./internal/multiwafer
func FuzzConfig(f *testing.F) {
	add := func(c Config) {
		d := append(append([]int(nil), c.Dims...), 0, 0, 0)
		f.Add(c.Wafers, string(c.Variant), c.BoundaryPorts, c.PortBW, c.PortLatency, uint8(len(c.Dims)), d[0], d[1], d[2])
	}
	add(DefaultConfig())
	add(Config{Wafers: 4, Variant: topology.FredA, BoundaryPorts: 2, PortBW: 1e9, Dims: []int{2, 2}})
	// The five inputs Validate once let through.
	add(Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 4, PortBW: 1e9, PortLatency: math.NaN()})
	add(Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 4, PortBW: 1e9, PortLatency: math.Inf(1)})
	add(Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 4, PortBW: math.NaN()})
	add(Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 4, PortBW: math.Inf(1)})
	add(Config{Wafers: 4, Variant: topology.FredD, BoundaryPorts: 4, PortBW: 1e9, Dims: []int{4611686018427387905, 4}})
	f.Fuzz(func(t *testing.T, wafers int, variant string, ports int, bw, lat float64, ndims uint8, d0, d1, d2 int) {
		cfg := Config{Wafers: wafers, Variant: topology.FredVariant(variant), BoundaryPorts: ports,
			PortBW: bw, PortLatency: lat, Dims: []int{d0, d1, d2}[:ndims%4]}
		err := cfg.Validate()
		var ce *ConfigError
		if err != nil && !errors.As(err, &ce) {
			t.Fatalf("Validate(%+v) = %v, want nil or *ConfigError", cfg, err)
		}
		if err != nil || wafers > 16 || ports > 20 {
			return
		}
		s, err := NewErr(cfg)
		if err != nil {
			t.Fatalf("NewErr rejected %+v, which Validate accepted: %v", cfg, err)
		}
		if s.Wafers() != wafers || s.NPUCount() != wafers*topology.FredVariantConfig(cfg.Variant).NPUs {
			t.Fatalf("%+v built %d wafers, %d NPUs", cfg, s.Wafers(), s.NPUCount())
		}
		if len(s.GlobalAllReduce(1e6).Phases) == 0 {
			t.Fatalf("%+v: empty global all-reduce", cfg)
		}
	})
}

// TestOverflowingFinishTimeEndsWithError: a bandwidth that Validate
// accepts but that puts a flow's finish time past the float64 range
// (1e6 bytes at 5e-324 B/s) must end the run with an error. The engine
// used to keep re-firing its completion event at t=+Inf and never
// return.
func TestOverflowingFinishTimeEndsWithError(t *testing.T) {
	cfg := Config{Wafers: 2, Variant: topology.FredD, BoundaryPorts: 1, PortBW: 5e-324}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	s := New(cfg)
	errc := make(chan error, 1)
	go func() {
		_, err := collective.RunToCompletionErr(s.Network(), s.GlobalAllReduce(1e6))
		errc <- err
	}()
	select {
	case err := <-errc:
		if err == nil {
			t.Fatal("run with an overflowing finish time returned no error")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run with an overflowing finish time did not return within 10 s")
	}
}
