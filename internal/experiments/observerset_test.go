package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/trace"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// observedCells is what one observer subset saw of a Figure 10 cell
// (Transformer-17B on Fred-D, blamed) and a fault-sweep cell (two
// failures, both fabrics).
type observedCells struct {
	total      float64
	breakdown  training.Breakdown
	npus       []training.NPUTime
	fredBW     float64
	meshBW     float64
	fredBlame  critpath.Blame
	meshBlame  critpath.Blame
	trace      []byte // nil unless traced
	linkTables string // empty unless link stats are on
}

// runObserved runs both cells on a session with the observers whose
// bits are set in mask: tracer, link stats, metrics, critpath,
// timeseries.
func runObserved(t *testing.T, mask int) observedCells {
	t.Helper()
	s := NewSession()
	var rec *trace.Recorder
	if mask&1 != 0 {
		rec = trace.NewRecorder()
		s.SetTracer(rec)
	}
	s.CollectLinkStats(mask&2 != 0)
	s.CollectMetrics(mask&4 != 0)
	s.CollectCritPath(mask&8 != 0)
	s.CollectTimeseries(mask&16 != 0)

	m := workload.Transformer17B()
	r, err := s.runTraining(FredD, m, defaultStrategy(m), 16, true)
	if err != nil {
		t.Fatal(err)
	}
	out := observedCells{total: r.Total, breakdown: r.Breakdown, npus: r.NPUs}
	out.fredBW, out.fredBlame = s.fredDegradedBW(2)
	out.meshBW, out.meshBlame = s.meshDegradedBW(2)
	if rec != nil {
		var buf bytes.Buffer
		if err := rec.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		out.trace = buf.Bytes()
	}
	for _, tbl := range s.LinkStatsTables() {
		out.linkTables += tbl.String()
	}
	return out
}

// TestObserverSubsetInvariance: every one of the 32 subsets of the five
// observers simulates the same results bit for bit, and every subset
// that traces, or collects link stats, produces the same trace bytes
// and hotspot tables. Observers only read, and none depends on another.
func TestObserverSubsetInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training cell and two fault cells 32 times")
	}
	base := runObserved(t, 0)
	if base.total <= 0 || base.fredBW <= 0 || base.meshBW <= 0 {
		t.Fatalf("cells did not run: %+v", base)
	}
	var traced, linked *observedCells
	for mask := 1; mask < 32; mask++ {
		got := runObserved(t, mask)
		name := fmt.Sprintf("observers %05b", mask)
		if got.total != base.total || got.breakdown != base.breakdown || !reflect.DeepEqual(got.npus, base.npus) {
			t.Errorf("%s: training results moved: total %v vs %v", name, got.total, base.total)
		}
		if got.fredBW != base.fredBW || got.meshBW != base.meshBW ||
			got.fredBlame != base.fredBlame || got.meshBlame != base.meshBlame {
			t.Errorf("%s: fault cell moved: %v/%v vs %v/%v", name, got.fredBW, got.meshBW, base.fredBW, base.meshBW)
		}
		if mask&1 != 0 {
			if traced == nil {
				traced = &got
				if len(got.trace) == 0 {
					t.Fatalf("%s: empty trace", name)
				}
			} else if !bytes.Equal(got.trace, traced.trace) {
				t.Errorf("%s: trace bytes differ from the first traced subset", name)
			}
		}
		if mask&2 != 0 {
			if linked == nil {
				linked = &got
				if got.linkTables == "" {
					t.Fatalf("%s: no hotspot table collected", name)
				}
			} else if got.linkTables != linked.linkTables {
				t.Errorf("%s: hotspot tables differ from the first link-stats subset", name)
			}
		}
	}
}

// TestCellEndsEveryObservedRun: a network a cell observes without
// training on it still has its run ended when the cell ends — its
// registry gains the netsim/fill/* export and its flight recorder the
// closing sample, so both agree on the run's final fill count.
func TestCellEndsEveryObservedRun(t *testing.T) {
	s := NewSession()
	s.CollectMetrics(true)
	s.CollectTimeseries(true)
	s.forEach("ends", 1, func(_ int, cs *Session) { cs.meshDegradedBW(1) })

	fill := s.Metrics().Lookup("netsim/fill/recomputes")
	if fill == nil || fill.Value() <= 0 {
		t.Fatalf("fault cell exported no fill counters: %v", fill)
	}
	cells := s.TimeseriesCells()
	if len(cells) != 1 {
		t.Fatalf("%d flight-recorder cells, want 1", len(cells))
	}
	for _, sd := range cells[0].Series {
		if sd.Name != "net/fill/recomputes" {
			continue
		}
		if last := sd.Samples[len(sd.Samples)-1][1]; last != fill.Value() {
			t.Fatalf("recorder's last fill sample %g, registry %g: the run was not ended", last, fill.Value())
		}
		return
	}
	t.Fatal("no net/fill/recomputes probe")
}
