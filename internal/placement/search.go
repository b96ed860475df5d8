package placement

import (
	"math/rand"
	"slices"

	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/topology"
)

// Cost scores a placement's static congestion: the sum over directed
// links of the squared number of group schedules sharing the link,
// across all three parallelism dimensions. Squaring penalises hotspots
// — two links with loads (3,1) cost more than (2,2) — matching how
// max-min sharing slows the busiest link's collectives. It is one full
// evaluation of the incremental evaluator Optimize scores swaps with,
// so both share a single scoring path.
func Cost(w topology.Wafer, s parallelism.Strategy, p Placement) float64 {
	return float64(newEvaluator(w, s, p).cost)
}

// Optimize searches for a low-congestion placement via random-restart
// hill climbing over pairwise swaps — the "intelligent device
// placement" of Section 5.3 (option 4), which on FRED suffices to
// remove routing conflicts and on the mesh merely picks which
// dimension to sacrifice (Section 3.2.2).
//
// Each candidate swap is scored incrementally: only the MP/DP/PP
// groups holding one of the two swapped ranks are recompiled, and the
// cost moves by exact integer updates of the per-link loads (see
// evaluator). Every comparison therefore sees the value Cost would
// return, so the accepted swaps and the result equal a search that
// rescored the whole placement each time.
func Optimize(w topology.Wafer, s parallelism.Strategy, restarts, sweeps int, seed int64) (Placement, float64) {
	rng := rand.New(rand.NewSource(seed))
	n := s.Workers()
	slots := w.NPUCount()

	best := MeshDefault(s)
	bestCost := Cost(w, s, best)

	for r := 0; r < restarts; r++ {
		// Random start (except the first restart, which refines the
		// default placement).
		cur := make(Placement, n)
		if r == 0 {
			copy(cur, best)
		} else {
			perm := rng.Perm(slots)
			for i := 0; i < n; i++ {
				cur[i] = perm[i]
			}
		}
		ev := newEvaluator(w, s, cur)
		curCost := ev.cost
		for sweep := 0; sweep < sweeps; sweep++ {
			improved := false
			for k := 0; k < n; k++ {
				i, j := rng.Intn(n), rng.Intn(n)
				if i == j {
					continue
				}
				if c := ev.swap(i, j); c < curCost {
					curCost = c
					improved = true
				} else {
					ev.revert()
				}
			}
			if !improved {
				break
			}
		}
		if c := float64(curCost); c < bestCost {
			bestCost = c
			best = append(Placement(nil), cur...)
		}
	}
	return best, bestCost
}

// evaluator keeps a placement's congestion cost up to date under rank
// swaps. It holds every MP, DP and PP group's link set (the links its
// unit-byte schedule touches) and a dense per-LinkID count of the
// groups crossing each link; cost is the sum of squared counts. A swap
// of ranks i and j changes only the groups holding i or j: they are
// removed, recompiled on the new placement and added back, each link
// moving the cost by ±(2c±1) — exact integer arithmetic, so the
// running cost always equals a full evaluation.
type evaluator struct {
	comm   *collective.Comm
	p      Placement
	groups []evalGroup
	of     [][]int // rank → indices of the groups holding it
	load   []int   // per LinkID: groups whose schedule crosses the link
	cost   int
	// seen and stamp dedupe one group's links while it compiles.
	seen  []uint32
	stamp uint32
	// The last swap, for revert: the swapped ranks and the groups it
	// recompiled.
	i, j     int
	affected []int
}

// evalGroup is one MP/DP/PP group: its ranks, whether it is a PP chain
// (point-to-point hops) rather than an all-reduce, and its link set
// under the evaluator's current placement. spare holds the link set
// before the last recompile, so a revert restores it without
// compiling and the two buffers are reused swap after swap.
type evalGroup struct {
	ranks        []int
	pp           bool
	links, spare []netsim.LinkID
}

// newEvaluator fully evaluates placement p, which the evaluator then
// owns: swap and revert permute it in place.
func newEvaluator(w topology.Wafer, s parallelism.Strategy, p Placement) *evaluator {
	comm := collective.NewComm(w)
	// Every swap compiles groups on new NPU tuples that rarely recur;
	// memoizing them would only grow the Comm.
	comm.SetMemoize(false)
	nLinks := w.Network().NumLinks()
	e := &evaluator{
		comm: comm,
		p:    p,
		of:   make([][]int, s.Workers()),
		load: make([]int, nLinks),
		seen: make([]uint32, nLinks),
	}
	add := func(groups [][]int, pp bool) {
		for _, g := range groups {
			if len(g) < 2 {
				continue
			}
			for _, r := range g {
				e.of[r] = append(e.of[r], len(e.groups))
			}
			e.groups = append(e.groups, evalGroup{ranks: g, pp: pp})
		}
	}
	add(s.MPGroups(), false)
	add(s.DPGroups(), false)
	add(s.PPGroups(), true)
	for gi := range e.groups {
		g := &e.groups[gi]
		g.links = e.compile(g, nil)
		e.add(g.links)
	}
	return e
}

// compile appends the group's link set under the current placement to
// buf: the deduplicated links of its unit-byte all-reduce, or of the
// point-to-point hops chaining a PP group's stages.
func (e *evaluator) compile(g *evalGroup, buf []netsim.LinkID) []netsim.LinkID {
	e.stamp++
	collect := func(sched collective.Schedule) {
		for _, ph := range sched.Phases {
			for _, t := range ph {
				for _, l := range t.Links {
					if e.seen[l] != e.stamp {
						e.seen[l] = e.stamp
						buf = append(buf, l)
					}
				}
			}
		}
	}
	npus := e.p.NPUs(g.ranks)
	if g.pp {
		for i := 0; i+1 < len(npus); i++ {
			collect(e.comm.P2P(npus[i], npus[i+1], 1))
		}
	} else {
		collect(e.comm.AllReduce(npus, 1))
	}
	return buf
}

// add and remove move one group's links into and out of the loads.
func (e *evaluator) add(links []netsim.LinkID) {
	for _, l := range links {
		e.cost += 2*e.load[l] + 1
		e.load[l]++
	}
}

func (e *evaluator) remove(links []netsim.LinkID) {
	for _, l := range links {
		e.load[l]--
		e.cost -= 2*e.load[l] + 1
	}
}

// swap exchanges ranks i and j in the placement and returns the new
// cost. Only the groups holding i or j are recompiled.
func (e *evaluator) swap(i, j int) int {
	e.i, e.j = i, j
	e.affected = append(e.affected[:0], e.of[i]...)
	for _, gi := range e.of[j] {
		if !slices.Contains(e.of[i], gi) {
			e.affected = append(e.affected, gi)
		}
	}
	for _, gi := range e.affected {
		e.remove(e.groups[gi].links)
	}
	e.p[i], e.p[j] = e.p[j], e.p[i]
	for _, gi := range e.affected {
		g := &e.groups[gi]
		g.links, g.spare = e.compile(g, g.spare[:0]), g.links
		e.add(g.links)
	}
	return e.cost
}

// revert undoes the last swap, restoring its groups' previous link
// sets without recompiling them.
func (e *evaluator) revert() {
	for _, gi := range e.affected {
		g := &e.groups[gi]
		e.remove(g.links)
		g.links, g.spare = g.spare, g.links
		e.add(g.links)
	}
	e.p[e.i], e.p[e.j] = e.p[e.j], e.p[e.i]
}

// OptimizeStrategy is a convenience wrapping Optimize with moderate
// search effort.
func OptimizeStrategy(w topology.Wafer, s parallelism.Strategy, seed int64) (Placement, float64) {
	return Optimize(w, s, 4, 12, seed)
}
