package training

import (
	"reflect"
	"testing"

	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/topology"
	"github.com/wafernet/fred/internal/workload"
)

// graphOf normalizes cfg on wafer w and builds its iteration graph.
func graphOf(t *testing.T, w topology.Wafer, cfg Config) *graph {
	t.Helper()
	cfg.Wafer = w
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	return buildGraph(&cfg)
}

// TestGraphIndependentOfFabric: the iteration graph is a function of
// the model, the strategy and the placement. The graphs built for the
// baseline mesh and for Fred-D agree node for node — kinds, classes,
// groups, bytes and edges — so only the executor sees the fabric.
func TestGraphIndependentOfFabric(t *testing.T) {
	t17b := parallelism.Strategy{MP: 2, DP: 5, PP: 2}
	cases := []struct {
		name string
		cfg  Config
	}{
		{"fig11a-t17b", Config{Model: workload.Transformer17B(), Strategy: t17b, MinibatchPerReplica: 40}},
		{"t17b-1f1b", Config{Model: workload.Transformer17B(), Strategy: t17b, MinibatchPerReplica: 40, Schedule: Schedule1F1B}},
		{"t17b-buckets", Config{Model: workload.Transformer17B(), Strategy: parallelism.Strategy{MP: 3, DP: 3, PP: 2},
			MinibatchPerReplica: 16, GradBuckets: 4}},
		{"gpt3", Config{Model: workload.GPT3(), Strategy: parallelism.Strategy{MP: 2, DP: 5, PP: 2}, MinibatchPerReplica: 16}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := graphOf(t, newMesh(), c.cfg)
			fredD := graphOf(t, newFred(topology.FredD), c.cfg)
			if len(base.nodes) == 0 || len(base.succ) == 0 {
				t.Fatal("empty graph")
			}
			if !reflect.DeepEqual(base, fredD) {
				t.Fatalf("graphs differ between fabrics: %d vs %d nodes, %d vs %d edges",
					len(base.nodes), len(fredD.nodes), len(base.succ), len(fredD.succ))
			}
		})
	}
}

// TestGraphStationaryShape: every gradient bucket's DP synchronisation
// waits for all DP replicas of its stage, one all-reduce per MP shard;
// and a pipeline send releases exactly one compute of the adjacent
// stage.
func TestGraphStationaryShape(t *testing.T) {
	s := parallelism.Strategy{MP: 3, DP: 3, PP: 2}
	g := graphOf(t, newMesh(), Config{Model: workload.Transformer17B(), Strategy: s, GradBuckets: 2})
	syncs, sends := 0, 0
	for _, n := range g.nodes {
		switch {
		case n.kind == collectiveNode && n.class == ClassDP:
			syncs++
			if int(n.deps) != s.DP || int(n.hi-n.lo) != s.MP {
				t.Errorf("DP sync has %d deps and %d ops, want %d and %d", n.deps, n.hi-n.lo, s.DP, s.MP)
			}
		case n.kind == collectiveNode && n.class == ClassPP:
			sends++
			if n.chain || n.shi-n.slo != 1 || g.nodes[g.succ[n.slo]].kind != computeNode {
				t.Errorf("pipeline send %+v does not release one compute", n)
			}
		}
	}
	if syncs != s.PP*2 {
		t.Errorf("%d DP syncs, want %d (stages × buckets)", syncs, s.PP*2)
	}
	if sends == 0 {
		t.Error("no pipeline sends")
	}
}

// TestExecutorLaunchesAfterLastDependency: a node with several
// dependencies launches once, when the last of them completes.
func TestExecutorLaunchesAfterLastDependency(t *testing.T) {
	g := &graph{npus: [][]int{{0}}}
	a := g.compute(0, "a", 1)
	b := g.compute(0, "b", 3)
	c := g.compute(0, "c", 2)
	g.edge(a, c)
	g.edge(b, c)
	cfg := Config{Wafer: newMesh(), Model: workload.ResNet152(), Strategy: parallelism.Strategy{MP: 1, DP: 1, PP: 1}}
	if err := cfg.normalize(); err != nil {
		t.Fatal(err)
	}
	r, err := newExecutor(&cfg, g.finish()).run()
	if err != nil {
		t.Fatal(err)
	}
	if r.Total != 5 || r.Breakdown.Compute != 6 {
		t.Fatalf("total %g, compute %g; want 5 and 6", r.Total, r.Breakdown.Compute)
	}
}

// TestGraphPresized: both builders size the node and entry arrays from
// the strategy before building, so a build never regrows them (a
// regrowth would leave a quarter or more of the capacity unused).
func TestGraphPresized(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
	}{
		{"t17b-buckets", Config{Model: workload.Transformer17B(), Strategy: parallelism.Strategy{MP: 3, DP: 3, PP: 2},
			MinibatchPerReplica: 16, GradBuckets: 4}},
		{"t17b-1f1b", Config{Model: workload.Transformer17B(), Strategy: parallelism.Strategy{MP: 2, DP: 5, PP: 2},
			MinibatchPerReplica: 40, Schedule: Schedule1F1B}},
		{"resnet-dp", Config{Model: workload.ResNet152(), Strategy: parallelism.Strategy{MP: 1, DP: 20, PP: 1}}},
		{"gpt3", Config{Model: workload.GPT3(), Strategy: parallelism.Strategy{MP: 2, DP: 5, PP: 2}, MinibatchPerReplica: 16}},
		{"t1t", Config{Model: workload.Transformer1T(), Strategy: parallelism.Strategy{MP: 4, DP: 5, PP: 1}}},
	}
	for _, c := range cases {
		g := graphOf(t, newMesh(), c.cfg)
		if n, e := len(g.nodes), len(g.entries); cap(g.nodes) > n+1 || cap(g.entries) > e+1 {
			t.Errorf("%s: %d nodes in %d, %d entries in %d", c.name, n, cap(g.nodes), e, cap(g.entries))
		}
	}
}
