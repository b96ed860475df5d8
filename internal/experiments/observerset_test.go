package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// observedCells is what one observer subset saw of a Figure 10 cell
// (Transformer-17B on Fred-D, blamed) and a fault-sweep cell (two
// failures, both fabrics), and the bytes of every artifact it exported.
type observedCells struct {
	total     float64
	breakdown training.Breakdown
	npus      []training.NPUTime
	fredBW    float64
	meshBW    float64
	fredBlame critpath.Blame
	meshBlame critpath.Blame
	// artifacts holds each exported artifact's bytes by observer bit
	// (see observerBits); empty while that observer is off.
	artifacts [5][]byte
}

// observerBits names the observer of each bit of a subset mask.
var observerBits = [5]string{"trace", "link tables", "metrics", "critpath", "timeseries"}

// runObserved runs the three cells as one fan-out on a session of the
// given pool width with the observers whose bits are set in mask:
// tracer, link stats, metrics, critpath, timeseries.
func runObserved(t *testing.T, mask, parallel int) observedCells {
	t.Helper()
	s := NewSession()
	s.SetParallel(parallel)
	s.CollectTrace(mask&1 != 0)
	s.CollectLinkStats(mask&2 != 0)
	s.CollectMetrics(mask&4 != 0)
	s.CollectCritPath(mask&8 != 0)
	s.CollectTimeseries(mask&16 != 0)

	m := workload.Transformer17B()
	var out observedCells
	s.forEach("subset", 3, func(i int, cs *Session) {
		switch i {
		case 0:
			r, err := cs.runTraining(FredD, m, defaultStrategy(m), 16, true)
			if err != nil {
				t.Error(err)
				return
			}
			out.total, out.breakdown, out.npus = r.Total, r.Breakdown, r.NPUs
		case 1:
			out.fredBW, out.fredBlame = cs.fredDegradedBW(2)
		case 2:
			out.meshBW, out.meshBlame = cs.meshDegradedBW(2)
		}
	})
	if err := s.Err(); err != nil {
		t.Fatal(err)
	}
	man := metrics.Manifest{Tool: "test"}
	encode := func(bit int, enc func() ([]byte, error)) {
		if mask&(1<<bit) == 0 {
			return
		}
		b, err := enc()
		if err != nil {
			t.Fatal(err)
		}
		out.artifacts[bit] = b
	}
	encode(0, func() ([]byte, error) {
		var buf bytes.Buffer
		err := s.Trace().WriteJSON(&buf)
		return buf.Bytes(), err
	})
	encode(1, func() ([]byte, error) {
		var b []byte
		for _, tbl := range s.LinkStatsTables() {
			b = append(b, tbl.String()...)
		}
		return b, nil
	})
	encode(2, s.Metrics().Export(man).Encode)
	encode(3, critpath.Export(man, s.CritPathCells()).Encode)
	encode(4, timeseries.Export(man, s.TimeseriesCells()).Encode)
	return out
}

// TestObserverSubsetInvariance: every one of the 32 subsets of the five
// observers simulates the same results bit for bit, and every artifact
// — the trace, the hotspot tables, and the metrics, critpath and
// timeseries encodings — is byte-identical in every subset that
// contains its observer. Observers only read, and none depends on
// another, except by design the flight recorder, which samples blame
// too when critpath is on: its bytes are compared among the subsets
// that agree on critpath. The traced subsets also run at two pool
// widths, which must export the same trace.
func TestObserverSubsetInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a training cell and two fault cells 48 times")
	}
	base := runObserved(t, 0, 1)
	if base.total <= 0 || base.fredBW <= 0 || base.meshBW <= 0 {
		t.Fatalf("cells did not run: %+v", base)
	}
	var first [5][2][]byte
	check := func(name string, mask int, got observedCells) {
		if got.total != base.total || got.breakdown != base.breakdown || !reflect.DeepEqual(got.npus, base.npus) {
			t.Errorf("%s: training results moved: total %v vs %v", name, got.total, base.total)
		}
		if got.fredBW != base.fredBW || got.meshBW != base.meshBW ||
			got.fredBlame != base.fredBlame || got.meshBlame != base.meshBlame {
			t.Errorf("%s: fault cell moved: %v/%v vs %v/%v", name, got.fredBW, got.meshBW, base.fredBW, base.meshBW)
		}
		for bit, art := range got.artifacts {
			if mask&(1<<bit) == 0 {
				continue
			}
			crit := 0
			if bit == 4 {
				crit = mask >> 3 & 1
			}
			switch want := &first[bit][crit]; {
			case len(art) == 0:
				t.Fatalf("%s: empty %s", name, observerBits[bit])
			case *want == nil:
				*want = art
			case !bytes.Equal(art, *want):
				t.Errorf("%s: %s bytes differ from the first subset that has them", name, observerBits[bit])
			}
		}
	}
	for mask := 1; mask < 32; mask++ {
		check(fmt.Sprintf("observers %05b", mask), mask, runObserved(t, mask, 1))
		if mask&1 != 0 {
			check(fmt.Sprintf("observers %05b at width 4", mask), mask, runObserved(t, mask, 4))
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
