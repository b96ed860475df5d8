package experiments

import "testing"

// TestScaleOutStudy checks the scale-out sweep's headline claims: the
// hierarchical exchange wins everywhere and by more as dimensions are
// added (the naive leader repeats the full payload per dimension), and
// the sharded engine's fill work grows sublinearly in total link count
// — the rate-engine scaling headroom the tentpole buys.
func TestScaleOutStudy(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-wafer sweep is slow")
	}
	rows, tbl := NewSession().ScaleOutStudy()
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	if tbl == nil || len(tbl.Rows) != len(rows) {
		t.Fatalf("table rows = %v", tbl)
	}
	for i, r := range rows {
		if r.Hier <= 0 || r.Naive <= 0 {
			t.Fatalf("row %d: empty times %+v", i, r)
		}
		if r.Hier >= r.Naive {
			t.Errorf("%d NPUs: hierarchical (%g) not faster than naive (%g)", r.NPUs, r.Hier, r.Naive)
		}
		if r.FillWork.FlowsFilled == 0 || r.FillWork.Recomputes == 0 {
			t.Errorf("%d NPUs: empty fill stats %+v", r.NPUs, r.FillWork)
		}
	}
	// Hierarchy widens the gap: the 2D grids must beat the flat rings'
	// gain, since the naive exchange pays the full payload per level.
	if rows[len(rows)-1].Gain <= rows[0].Gain {
		t.Errorf("gain should grow with hierarchy: %v vs %v", rows[len(rows)-1].Gain, rows[0].Gain)
	}
	// Bounded per-link fill work: from the 8-wafer 4x2 grid to the
	// 64-wafer 8x8 grid the link count grows 8x. The global collective
	// dirties every domain at each phase boundary, so total fill work
	// grows with the system — but per link it must stay flat (each
	// domain refills only its own flows, at an unchanged recompute
	// count). A global engine would rescan all flows on every
	// completion-triggered recompute, growing per-link work with size.
	// (BenchmarkDomainFill's dirty1 series shows the sublinear case:
	// localized churn costs O(domain), independent of system size.)
	a, b := rows[2], rows[len(rows)-1]
	perLinkA := float64(a.FillWork.FlowsFilled) / float64(a.Links)
	perLinkB := float64(b.FillWork.FlowsFilled) / float64(b.Links)
	if perLinkB > perLinkA*1.1 {
		t.Errorf("fill work per link grew: %g → %g", perLinkA, perLinkB)
	}
	if b.FillWork.Recomputes > a.FillWork.Recomputes {
		t.Errorf("recompute count grew with system size: %d → %d",
			a.FillWork.Recomputes, b.FillWork.Recomputes)
	}
}
