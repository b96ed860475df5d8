package collective

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/topology"
)

// stepResult captures one scenario step bit-exactly: elapsed time and
// blame decomposition as IEEE-754 bits, failures as their message.
type stepResult struct {
	elapsed uint64
	blame   [3]uint64
	errMsg  string
}

// runScenario replays the seed's fault plan and collective sequence on
// a fresh system and returns every step's result plus the final
// per-link byte counters, all bit-exact. The memoize flag is the only
// difference between the compiled-replay run and the
// compile-every-iteration reference run.
func runScenario(seed int64, memoize bool) ([]stepResult, []uint64, int) {
	rng := rand.New(rand.NewSource(seed))
	sched := sim.NewScheduler()
	net := netsim.New(sched)
	net.SetCritPath(critpath.NewRecorder())
	var w topology.Wafer
	switch rng.Intn(3) {
	case 0:
		w = topology.NewMesh(net, topology.DefaultMeshConfig())
	case 1:
		w = topology.NewFredFabric(net, topology.FredVariantConfig(topology.FredC))
	default:
		w = topology.NewFredFabric(net, topology.FredVariantConfig(topology.FredD))
	}
	comm := NewComm(w)
	comm.SetMemoize(memoize)

	full := make([]int, w.NPUCount())
	for i := range full {
		full[i] = i
	}
	// A small palette of groups and sizes so steady-state repeats occur
	// and the memoized run actually replays warm schedules.
	sub := append([]int{}, full[:2+rng.Intn(len(full)-2)]...)
	rng.Shuffle(len(sub), func(i, j int) { sub[i], sub[j] = sub[j], sub[i] })
	groups := [][]int{full, sub}
	sizes := []float64{1e6, 4e6, 2.5e6}

	pickLink := func() *netsim.Link {
		return net.Link(netsim.LinkID(rng.Intn(net.NumLinks())))
	}
	var results []stepResult
	record := func(elapsed sim.Time, bl critpath.Blame, err error) {
		r := stepResult{
			elapsed: math.Float64bits(float64(elapsed)),
			blame: [3]uint64{
				math.Float64bits(bl.Serial),
				math.Float64bits(bl.Contention),
				math.Float64bits(bl.Fault),
			},
		}
		if err != nil {
			r.errMsg = err.Error()
		}
		results = append(results, r)
	}

	steps := 10 + rng.Intn(6)
	for i := 0; i < steps; i++ {
		group := groups[rng.Intn(len(groups))]
		bytes := sizes[rng.Intn(len(sizes))]
		switch rng.Intn(6) {
		case 0: // fail a link, then run a degraded all-reduce
			if l := pickLink(); !l.Failed() {
				l.Fail()
				sched.Run() // drain aborts so the next op starts clean
			}
			record(RunToCompletionBlame(net, comm.AllReduceDegraded(group, bytes)))
		case 1: // degrade a link (epoch bump, no aborts)
			if l := pickLink(); !l.Failed() && !math.IsInf(l.Bandwidth, 1) {
				l.Degrade(0.25 + 0.5*rng.Float64())
			}
			record(RunToCompletionBlame(net, comm.AllReduceDegraded(group, bytes)))
		case 2: // restore a link
			if l := pickLink(); !l.Failed() {
				l.Restore()
			}
			record(RunToCompletionBlame(net, comm.AllReduceDegraded(group, bytes)))
		case 3: // epoch bump MID-collective: degrade while flows are active
			s := comm.AllReduceDegraded(group, bytes)
			if l := pickLink(); !l.Failed() && !math.IsInf(l.Bandwidth, 1) {
				f := 0.3 + 0.4*rng.Float64()
				sched.After(1e-7, func() { l.Degrade(f) })
			}
			record(RunToCompletionBlame(net, s))
			// The very next compile must see the new epoch.
			record(RunToCompletionBlame(net, comm.AllReduceDegraded(group, bytes)))
		case 4: // non-fault-aware collectives (may fail on dead links —
			// identically on both sides)
			record(RunToCompletionBlame(net, comm.ReduceScatter(group, bytes)))
			record(RunToCompletionBlame(net, comm.AllGather(group, bytes)))
		default:
			record(RunToCompletionBlame(net, comm.P2P(group[0], group[len(group)-1], bytes)))
			record(RunToCompletionBlame(net, comm.Multicast(group[0], group, bytes)))
		}
	}

	linkBytes := make([]uint64, net.NumLinks())
	for id := range linkBytes {
		linkBytes[id] = math.Float64bits(net.Link(netsim.LinkID(id)).BytesCarried())
	}
	return results, linkBytes, len(comm.memo)
}

// The satellite property: for 40 seeded fault plans, compiled-replay
// results — completion times, blame buckets, failure messages, and
// final per-link byte counters — are bit-identical to
// compile-every-iteration, including across epoch bumps landing
// mid-collective.
func TestPropertyCompiledReplayBitIdentical(t *testing.T) {
	warmHits := false
	for seed := int64(0); seed < 40; seed++ {
		gotSteps, gotLinks, memoLen := runScenario(seed, true)
		wantSteps, wantLinks, _ := runScenario(seed, false)
		if !reflect.DeepEqual(gotSteps, wantSteps) {
			for i := range gotSteps {
				if gotSteps[i] != wantSteps[i] {
					t.Fatalf("seed %d step %d: replay %+v, reference %+v", seed, i, gotSteps[i], wantSteps[i])
				}
			}
			t.Fatalf("seed %d: step counts differ: %d vs %d", seed, len(gotSteps), len(wantSteps))
		}
		if !reflect.DeepEqual(gotLinks, wantLinks) {
			t.Fatalf("seed %d: per-link byte counters diverge", seed)
		}
		if memoLen > 0 {
			warmHits = true
		}
	}
	if !warmHits {
		t.Fatal("no scenario ever populated the memo — the property tested nothing")
	}
}

// A warm compile is a pure lookup: zero allocations per request.
func TestZeroAllocWarmCompile(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	m := topology.NewMesh(net, topology.DefaultMeshConfig())
	comm := NewComm(m)
	group := make([]int, m.NPUCount())
	for i := range group {
		group[i] = i
	}
	comm.AllReduce(group, 1e6) // compile once
	if allocs := testing.AllocsPerRun(200, func() {
		if s := comm.AllReduce(group, 1e6); s.Err != nil {
			t.Fatal(s.Err)
		}
	}); allocs != 0 {
		t.Fatalf("warm compile allocates %.0f objects/op, want 0", allocs)
	}
}

// Warm hits replay the same immutable arena; any fabric mutation —
// Degrade and Restore included — retires the entry and the next
// request recompiles against the current state.
func TestEpochInvalidationRecompiles(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	m := topology.NewMesh(net, topology.DefaultMeshConfig())
	comm := NewComm(m)
	group := []int{0, 1, 2, 3, 4, 5}
	s1 := comm.AllReduce(group, 1e6)
	s1b := comm.AllReduce(group, 1e6)
	if &s1.Phases[0][0] != &s1b.Phases[0][0] {
		t.Fatal("warm hit did not share the compiled arena")
	}
	l := net.Link(m.NeighborLink(0, 1))
	l.Degrade(0.5)
	s2 := comm.AllReduce(group, 1e6)
	if &s2.Phases[0][0] == &s1.Phases[0][0] {
		t.Fatal("Degrade did not invalidate the compiled schedule")
	}
	l.Restore()
	s3 := comm.AllReduce(group, 1e6)
	if &s3.Phases[0][0] == &s2.Phases[0][0] || &s3.Phases[0][0] == &s1.Phases[0][0] {
		t.Fatal("Restore did not invalidate the compiled schedule")
	}
	if s1.TotalBytes() != s2.TotalBytes() || s2.TotalBytes() != s3.TotalBytes() {
		t.Fatal("recompiled schedules move different byte totals")
	}
}

// alienWafer is a topology the dispatcher has no algorithm for: it
// carries all of Mesh's methods but is not *topology.Mesh.
type alienWafer struct{ *topology.Mesh }

// Satellite: an unsupported wafer type surfaces as a typed error
// through Schedule.Err and the Op failure path instead of a panic.
func TestUnsupportedWaferTypeError(t *testing.T) {
	net := netsim.New(sim.NewScheduler())
	m := topology.NewMesh(net, topology.DefaultMeshConfig())
	comm := NewComm(alienWafer{m})
	for name, s := range map[string]Schedule{
		"allreduce":     comm.AllReduce([]int{0, 1, 2}, 1e6),
		"reducescatter": comm.ReduceScatter([]int{0, 1, 2}, 1e6),
		"allgather":     comm.AllGather([]int{0, 1, 2}, 1e6),
	} {
		var uw *UnsupportedWaferError
		if !errors.As(s.Err, &uw) {
			t.Fatalf("%s: Err = %v, want *UnsupportedWaferError", name, s.Err)
		}
		if uw.Collective != name {
			t.Fatalf("error names collective %q, want %q", uw.Collective, name)
		}
		if s.Empty() {
			t.Fatalf("%s: errored schedule reports Empty, so arbiters would skip it silently", name)
		}
	}
	s := comm.AllReduce([]int{0, 1, 2}, 1e6)
	op := Start(net, s, nil)
	if op.State() != OpFailed {
		t.Fatalf("op state %v, want OpFailed", op.State())
	}
	var uw *UnsupportedWaferError
	if !errors.As(op.Err(), &uw) {
		t.Fatalf("op error %v does not unwrap to *UnsupportedWaferError", op.Err())
	}
	if _, err := RunToCompletionErr(net, s); err == nil {
		t.Fatal("RunToCompletionErr returned nil for an unsupported wafer")
	}
}

func benchSetup() (*netsim.Network, *Comm, []int) {
	net := netsim.New(sim.NewScheduler())
	m := topology.NewMesh(net, topology.DefaultMeshConfig())
	comm := NewComm(m)
	group := make([]int, m.NPUCount())
	for i := range group {
		group[i] = i
	}
	return net, comm, group
}

var benchSchedule Schedule

// BenchmarkCompiledReplay measures the steady-state cost of acquiring
// a schedule the training loop has already compiled: a key encode and
// a map hit. Gated in CI at 0 allocs/op.
func BenchmarkCompiledReplay(b *testing.B) {
	_, comm, group := benchSetup()
	comm.AllReduce(group, 1e6)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSchedule = comm.AllReduce(group, 1e6)
	}
}

// BenchmarkCompileEachIteration is the pre-compiler behaviour: every
// request rebuilds the full Hamiltonian-ring schedule from scratch.
func BenchmarkCompileEachIteration(b *testing.B) {
	_, comm, group := benchSetup()
	comm.SetMemoize(false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSchedule = comm.AllReduce(group, 1e6)
	}
}

// The end-to-end pair: one full collective iteration — schedule
// acquisition, flow instantiation, drain — warm versus rebuilt.
func BenchmarkCompiledReplayEndToEnd(b *testing.B) {
	net, comm, group := benchSetup()
	RunToCompletion(net, comm.AllReduce(group, 1e6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunToCompletion(net, comm.AllReduce(group, 1e6))
	}
}

func BenchmarkCompileEachEndToEnd(b *testing.B) {
	net, comm, group := benchSetup()
	comm.SetMemoize(false)
	RunToCompletion(net, comm.AllReduce(group, 1e6))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RunToCompletion(net, comm.AllReduce(group, 1e6))
	}
}
