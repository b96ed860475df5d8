package critpath

import (
	"math"
	"path/filepath"
	"sync"
	"testing"

	"github.com/wafernet/fred/internal/metrics"
)

func almost(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }

func TestBlameTotalAndAdd(t *testing.T) {
	b := Blame{Serial: 1, Contention: 2, Fault: 3}
	if b.Total() != 6 {
		t.Fatalf("Total = %v, want 6", b.Total())
	}
	b.Add(Blame{Serial: 0.5, Fault: 1})
	if b.Serial != 1.5 || b.Contention != 2 || b.Fault != 4 {
		t.Fatalf("Add wrong: %+v", b)
	}
}

func TestBlameSplitSumsExactly(t *testing.T) {
	b := Blame{Serial: 0.1, Contention: 0.3, Fault: 0.2}
	for _, w := range []float64{0.001, 1.0 / 3, 7.77, 1e6} {
		s := b.Split(w)
		if s.Total() != w {
			t.Fatalf("Split(%v).Total() = %v, want exact %v", w, s.Total(), w)
		}
		// Ratios preserved (up to fp) on the non-residual parts.
		if !almost(s.Contention/w, b.Contention/b.Total()) {
			t.Fatalf("Split(%v) contention ratio %v, want %v", w, s.Contention/w, b.Contention/b.Total())
		}
	}
	if s := b.Split(0); s != (Blame{}) {
		t.Fatalf("Split(0) = %+v, want zero", s)
	}
	if s := (Blame{}).Split(2); s != (Blame{Serial: 2}) {
		t.Fatalf("zero-blame Split(2) = %+v, want all-serial", s)
	}
}

func TestClampBlame(t *testing.T) {
	cases := []struct {
		elapsed, stall, fault float64
		want                  Blame
	}{
		{1, 0.25, 0.25, Blame{Serial: 0.5, Contention: 0.25, Fault: 0.25}},
		{1, 2, 0, Blame{Contention: 1}},                       // stall clamped to elapsed
		{1, 0.75, 0.75, Blame{Contention: 0.75, Fault: 0.25}}, // fault clamped to remainder
		{1, -1, -1, Blame{Serial: 1}},                         // negative inputs ignored
		{0, 5, 5, Blame{}},                                    // empty interval
	}
	for _, c := range cases {
		got := ClampBlame(c.elapsed, c.stall, c.fault)
		if got != c.want {
			t.Errorf("ClampBlame(%v, %v, %v) = %+v, want %+v", c.elapsed, c.stall, c.fault, got, c.want)
		}
		if got.Total() != math.Max(c.elapsed, 0) {
			t.Errorf("ClampBlame(%v, ...) does not sum to elapsed: %v", c.elapsed, got.Total())
		}
	}
}

func TestRecorderNilSafe(t *testing.T) {
	// Zero endpoints and unknown IDs must be ignored, so hook points can
	// pass optional parents unconditionally.
	r := NewRecorder()
	r.Edge(EdgeDep, 0, 1)
	r.Edge(EdgeSeq, 1, 0)
	r.Close(0, 1, Blame{}, "")
	r.Close(99, 1, Blame{}, "")
	r.Fail(0, 1, Blame{})
	if r.NodeCount() != 0 || r.EdgeCount() != 0 {
		t.Fatalf("zero/unknown IDs recorded something: %d nodes, %d edges", r.NodeCount(), r.EdgeCount())
	}
	if n := r.Node(0); n != (Node{}) {
		t.Fatalf("Node(0) = %+v, want zero", n)
	}
}

func TestRecorderOpenCloseFail(t *testing.T) {
	r := NewRecorder()
	a := r.Open(Node{Kind: KindOp, Label: "op", Start: 1})
	b := r.Open(Node{Kind: KindFlow, Label: "f", Start: 1})
	if a != 1 || b != 2 {
		t.Fatalf("IDs = %d, %d, want 1, 2", a, b)
	}
	r.Close(a, 3, Blame{Serial: 2}, "link-x")
	r.Fail(b, 2, Blame{Fault: 1})
	na, nb := r.Node(a), r.Node(b)
	if na.End != 3 || na.BindLink != "link-x" || na.Failed {
		t.Fatalf("Close wrong: %+v", na)
	}
	if nb.End != 2 || !nb.Failed || nb.Blame.Fault != 1 {
		t.Fatalf("Fail wrong: %+v", nb)
	}
	r.Edge(EdgeExpand, a, b)
	if r.EdgeCount() != 1 || r.Edges()[0] != (Edge{Kind: EdgeExpand, From: a, To: b}) {
		t.Fatalf("Edge wrong: %+v", r.Edges())
	}
}

func TestLongestChain(t *testing.T) {
	// Two chains sharing a prefix:
	//   1 (2s) -> 2 (1s) -> 4 (5s)   = 8
	//   1 (2s) -> 3 (4s)             = 6
	r := NewRecorder()
	ids := make([]NodeID, 0, 4)
	for _, d := range []float64{2, 1, 4, 5} {
		ids = append(ids, r.Add(Node{Start: 0, End: d}))
	}
	r.Edge(EdgeSeq, ids[0], ids[1])
	r.Edge(EdgeSeq, ids[0], ids[2])
	r.Edge(EdgeSeq, ids[1], ids[3])
	// Dep edges must not contribute length.
	r.Edge(EdgeDep, ids[2], ids[3])
	if got := r.LongestChain(); got != 8 {
		t.Fatalf("LongestChain = %v, want 8", got)
	}
	if got := NewRecorder().LongestChain(); got != 0 {
		t.Fatalf("empty LongestChain = %v, want 0", got)
	}
}

func TestBuildIterationBucketsSumToTotal(t *testing.T) {
	segs := []Segment{
		{Kind: "compute", Label: "c", Start: 0, End: 0.4},
		{Kind: "wait", Label: "w1", Class: "MP", Start: 0.4, End: 0.7,
			Blame: Blame{Serial: 0.1, Contention: 0.2}},
		{Kind: "wait", Label: "w2", Class: "DP", Start: 0.7, End: 0.9,
			Blame: Blame{Serial: 0.05, Contention: 0.05, Fault: 0.1}, BindLink: "L"},
	}
	it := BuildIteration("cell", 1.0, segs)
	if !almost(it.Compute, 0.4) || !almost(it.CommSerial, 0.15) ||
		!almost(it.CommContention, 0.25) || !almost(it.FaultRecovery, 0.1) {
		t.Fatalf("buckets wrong: %+v", it)
	}
	sum := it.Compute + it.CommSerial + it.CommContention + it.FaultRecovery + it.Idle
	if math.Abs(sum-it.Total) > 1e-9*it.Total {
		t.Fatalf("buckets sum to %v, want %v", sum, it.Total)
	}
	if !almost(it.PathLen, 0.9) {
		t.Fatalf("PathLen = %v, want 0.9", it.PathLen)
	}
	// Segments sorted by descending duration.
	if it.Segments[0].Label != "c" || it.Segments[1].Label != "w1" || it.Segments[2].Label != "w2" {
		t.Fatalf("segment order wrong: %+v", it.Segments)
	}
}

func TestBuildIterationIdleSnap(t *testing.T) {
	// A path that over-covers total by a sub-1e-9 hair must snap Idle to
	// zero rather than go negative.
	segs := []Segment{{Kind: "compute", Start: 0, End: 1 + 1e-12}}
	it := BuildIteration("", 1, segs)
	if it.Idle != 0 {
		t.Fatalf("Idle = %v, want snapped 0", it.Idle)
	}
}

func TestBuildIterationSegmentCap(t *testing.T) {
	var segs []Segment
	for i := 0; i < maxSegments+10; i++ {
		segs = append(segs, Segment{Kind: "compute", Start: float64(i), End: float64(i) + 1})
	}
	it := BuildIteration("", float64(len(segs)), segs)
	if len(it.Segments) != maxSegments || it.Dropped != 10 {
		t.Fatalf("cap wrong: %d segments, %d dropped", len(it.Segments), it.Dropped)
	}
	// The buckets still cover every segment.
	if !almost(it.Compute, float64(maxSegments+10)) {
		t.Fatalf("Compute = %v, want full coverage", it.Compute)
	}
}

func TestIterationRecordMetrics(t *testing.T) {
	it := BuildIteration("", 1, []Segment{
		{Kind: "wait", Start: 0, End: 0.5, Blame: Blame{Serial: 0.2, Contention: 0.3}},
	})
	reg := metrics.NewRegistry()
	it.RecordMetrics(reg)
	art := reg.Export(metrics.Manifest{Tool: "test"})
	found := map[string]float64{}
	for _, s := range art.Series {
		if s.Value != nil {
			found[s.Name] = *s.Value
		}
	}
	if found["critpath/iterations"] != 1 || !almost(found["critpath/comm_contention_s"], 0.3) ||
		!almost(found["critpath/idle_s"], 0.5) {
		t.Fatalf("critpath series wrong: %v", found)
	}
	it.RecordMetrics(nil) // must not panic
}

func TestArtifactRoundTripAndDeterminism(t *testing.T) {
	m := metrics.Manifest{Tool: "fredtrain", Workload: "t17b", System: "Fred-D", Seed: 7}
	cells := []Iteration{
		BuildIteration("a", 1, []Segment{{Kind: "compute", Start: 0, End: 1}}),
		BuildIteration("b", 2, []Segment{{Kind: "wait", Start: 0, End: 1, Blame: Blame{Serial: 1}, BindLink: "L"}}),
	}
	art := Export(m, cells)
	if art.Schema != Schema {
		t.Fatalf("Schema = %q", art.Schema)
	}
	if art.Manifest.ConfigHash == "" || art.Manifest.EngineVersion == "" {
		t.Fatalf("Export did not stamp the manifest: %+v", art.Manifest)
	}
	enc1, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	enc2, _ := Export(m, cells).Encode()
	if string(enc1) != string(enc2) {
		t.Fatal("Encode is not deterministic")
	}

	path := filepath.Join(t.TempDir(), "cp.json")
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cells) != 2 || back.Cells[1].Label != "b" ||
		back.Cells[1].Segments[0].BindLink != "L" {
		t.Fatalf("round trip lost data: %+v", back.Cells)
	}

	if _, err := Decode([]byte(`{"schema":"fred-metrics/v1"}`)); err == nil {
		t.Fatal("Decode accepted a foreign schema")
	}
	if _, err := Decode([]byte("nope")); err == nil {
		t.Fatal("Decode accepted garbage")
	}
}

func TestCollectorSlotOrder(t *testing.T) {
	c := NewCollector()
	s0 := c.Reserve()
	s1 := c.Reserve()
	// Fill out of order, concurrently.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); c.Fill(s1, Iteration{Label: "b"}) }()
	go func() { defer wg.Done(); c.Fill(s0, Iteration{Label: "a"}) }()
	wg.Wait()
	c.Append(Iteration{Label: "c"})
	got := c.Cells()
	if len(got) != 3 || got[0].Label != "a" || got[1].Label != "b" || got[2].Label != "c" {
		t.Fatalf("slot order wrong: %+v", got)
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCompute: "compute", KindWait: "wait", KindOp: "op", KindFlow: "flow", Kind(99): "node",
	} {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestRecorderArenaAcrossChunks: nodes recorded past several arena
// chunks keep their IDs, contents and creation order, and Close and
// Fail reach nodes in any chunk.
func TestRecorderArenaAcrossChunks(t *testing.T) {
	r := NewRecorder()
	const n = 2*nodeChunk + 7
	for i := 1; i <= n; i++ {
		id := r.Add(Node{Kind: KindFlow, Label: "f", Start: float64(i), End: float64(i) + 0.5})
		if int(id) != i {
			t.Fatalf("node %d got ID %d", i, id)
		}
	}
	r.Close(nodeChunk+1, nodeChunk+3, Blame{Serial: 2}, "l")
	r.Fail(n, float64(n)+1, Blame{Fault: 1})
	if r.NodeCount() != n {
		t.Fatalf("NodeCount = %d, want %d", r.NodeCount(), n)
	}
	nodes := r.Nodes()
	if len(nodes) != n {
		t.Fatalf("Nodes() has %d nodes, want %d", len(nodes), n)
	}
	for i, nd := range nodes {
		if nd.ID != NodeID(i+1) || nd.Start != float64(i+1) || nd != r.Node(nd.ID) {
			t.Fatalf("node %d out of order or differs from Node(): %+v", i+1, nd)
		}
	}
	if nd := r.Node(nodeChunk + 1); nd.End != nodeChunk+3 || nd.BindLink != "l" || nd.Blame.Serial != 2 {
		t.Fatalf("Close in the second chunk lost: %+v", nd)
	}
	if nd := r.Node(n); !nd.Failed || nd.Blame.Fault != 1 {
		t.Fatalf("Fail in the last chunk lost: %+v", nd)
	}
	if r.Node(n+1) != (Node{}) || r.Node(0) != (Node{}) {
		t.Fatal("unknown IDs must read as the zero Node")
	}
}
