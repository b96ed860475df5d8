package metrics

import "testing"

func artifactOf(build func(r *Registry)) *Artifact {
	r := NewRegistry()
	build(r)
	return r.Export(Manifest{Tool: "test"})
}

// withTolerance gives the named series its own tolerance, as a
// committed reference artifact (BENCH_netsim.json) carries one.
func withTolerance(a *Artifact, name string, tol float64) *Artifact {
	for i := range a.Series {
		if a.Series[i].Name == name {
			a.Series[i].Tolerance = tol
		}
	}
	return a
}

func TestCompareVerdicts(t *testing.T) {
	ref := withTolerance(artifactOf(func(r *Registry) {
		r.Gauge("lat", "s").SetBetter("lower").Set(100)
		r.Gauge("tput", "").SetBetter("higher").Set(50)
		r.Gauge("info", "").Set(1)
		r.Gauge("tight", "").SetBetter("lower").Set(100)
		r.Gauge("gone", "").Set(3)
	}), "tight", 0.01)
	cand := artifactOf(func(r *Registry) {
		r.Gauge("lat", "s").Set(150)    // +50% → regression at 10%
		r.Gauge("tput", "").Set(49)     // −2% → ok at 10%
		r.Gauge("info", "").Set(999)    // no direction → info
		r.Gauge("tight", "").Set(103)   // +3% beyond its own 1% → regression
		r.Gauge("brandnew", "").Set(42) // candidate-only
	})
	deltas := Compare(ref, cand, 0.10)
	want := map[string]Verdict{
		"lat": VerdictRegression, "tput": VerdictOK, "info": VerdictInfo,
		"tight": VerdictRegression, "gone": VerdictMissing, "brandnew": VerdictNew,
	}
	if len(deltas) != len(want) {
		t.Fatalf("%d delta rows, want %d", len(deltas), len(want))
	}
	for _, d := range deltas {
		if d.Verdict != want[d.Name] {
			t.Errorf("%s verdict = %s, want %s", d.Name, d.Verdict, want[d.Name])
		}
	}
	if got := Regressions(deltas); got != 2 {
		t.Fatalf("Regressions = %d, want 2", got)
	}
	// Rows preserve reference order, then candidate-only rows.
	order := []string{"lat", "tput", "info", "tight", "gone", "brandnew"}
	for i, d := range deltas {
		if d.Name != order[i] {
			t.Fatalf("row %d = %s, want %s", i, d.Name, order[i])
		}
	}
}

func TestCompareImprovedAndHigher(t *testing.T) {
	ref := artifactOf(func(r *Registry) {
		r.Gauge("lat", "s").SetBetter("lower").Set(100)
		r.Gauge("tput", "").SetBetter("higher").Set(100)
	})
	cand := artifactOf(func(r *Registry) {
		r.Gauge("lat", "s").Set(50)  // −50% → improved
		r.Gauge("tput", "").Set(500) // +400% → improved
	})
	for _, d := range Compare(ref, cand, 0.10) {
		if d.Verdict != VerdictImproved {
			t.Errorf("%s verdict = %s, want improved", d.Name, d.Verdict)
		}
	}
	// Better:higher regression.
	worse := artifactOf(func(r *Registry) {
		r.Gauge("lat", "s").Set(100)
		r.Gauge("tput", "").Set(10)
	})
	deltas := Compare(ref, worse, 0.10)
	if deltas[1].Verdict != VerdictRegression {
		t.Fatalf("tput drop verdict = %s, want regression", deltas[1].Verdict)
	}
}

// A zero reference (the zero-allocation gate) compares absolutely: any
// increase beyond the tolerance regresses, and staying at zero is ok.
func TestCompareZeroBaseline(t *testing.T) {
	ref := withTolerance(artifactOf(func(r *Registry) {
		r.Gauge("allocs", "").SetBetter("lower").Set(0)
	}), "allocs", 0.25)
	still := artifactOf(func(r *Registry) { r.Gauge("allocs", "").Set(0) })
	if d := Compare(ref, still, 0.10)[0]; d.Verdict != VerdictOK || !d.AbsBase {
		t.Fatalf("0→0 delta = %+v, want ok/absolute", d)
	}
	leak := artifactOf(func(r *Registry) { r.Gauge("allocs", "").Set(3) })
	if d := Compare(ref, leak, 0.10)[0]; d.Verdict != VerdictRegression {
		t.Fatalf("0→3 verdict = %s, want regression", d.Verdict)
	}
}

// A change landing exactly at the tolerance is not a regression: the
// gate fails only strictly beyond it (bad > tol), so a candidate that
// sits right on the boundary passes in both directions.
func TestCompareExactlyAtTolerancePasses(t *testing.T) {
	ref := artifactOf(func(r *Registry) {
		r.Gauge("lat", "s").SetBetter("lower").Set(100)
		r.Gauge("tput", "").SetBetter("higher").Set(100)
	})
	cand := artifactOf(func(r *Registry) {
		r.Gauge("lat", "s").Set(110) // +10% at a 10% tolerance
		r.Gauge("tput", "").Set(90)  // −10% at a 10% tolerance
	})
	for _, d := range Compare(ref, cand, 0.10) {
		if d.Verdict != VerdictOK {
			t.Errorf("%s at exactly the tolerance = %s, want ok", d.Name, d.Verdict)
		}
	}
	// The boundary also holds for a per-series tolerance and in absolute
	// mode (zero reference).
	refAbs := withTolerance(artifactOf(func(r *Registry) {
		r.Gauge("allocs", "").SetBetter("lower").Set(0)
	}), "allocs", 2)
	edge := artifactOf(func(r *Registry) { r.Gauge("allocs", "").Set(2) })
	if d := Compare(refAbs, edge, 0.10)[0]; d.Verdict != VerdictOK || !d.AbsBase {
		t.Fatalf("0→2 at absolute tolerance 2 = %+v, want ok/absolute", d)
	}
	over := artifactOf(func(r *Registry) { r.Gauge("allocs", "").Set(2.5) })
	if d := Compare(refAbs, over, 0.10)[0]; d.Verdict != VerdictRegression {
		t.Fatalf("0→2.5 beyond absolute tolerance = %s, want regression", d.Verdict)
	}
}

// A drop below a zero reference counts as an absolute improvement for
// better:lower series — the sign convention survives the AbsBase
// switch.
func TestCompareZeroBaselineImproves(t *testing.T) {
	ref := artifactOf(func(r *Registry) {
		r.Gauge("drift", "s").SetBetter("lower").Set(0)
	})
	cand := artifactOf(func(r *Registry) { r.Gauge("drift", "s").Set(-3) })
	d := Compare(ref, cand, 0.10)[0]
	if !d.AbsBase || d.Rel != -3 {
		t.Fatalf("0→−3 delta = %+v, want absolute Rel −3", d)
	}
	if d.Verdict != VerdictImproved {
		t.Fatalf("0→−3 verdict = %s, want improved", d.Verdict)
	}
}

// Missing and New rows carry the one-sided presence flags, keep the
// side they do have, and don't count toward Regressions. A directed
// missing series counts toward MissingGated instead.
func TestCompareMissingVersusNew(t *testing.T) {
	ref := artifactOf(func(r *Registry) {
		r.Gauge("gone", "s").SetBetter("lower").Set(7)
	})
	cand := artifactOf(func(r *Registry) {
		r.Gauge("fresh", "B").SetBetter("lower").Set(9)
	})
	deltas := Compare(ref, cand, 0.10)
	if len(deltas) != 2 {
		t.Fatalf("%d delta rows, want 2", len(deltas))
	}
	gone, fresh := deltas[0], deltas[1]
	if gone.Verdict != VerdictMissing || !gone.HasOld || gone.HasNew {
		t.Fatalf("missing row = %+v, want HasOld only", gone)
	}
	if gone.Old != 7 || gone.Unit != "s" {
		t.Fatalf("missing row lost its reference side: %+v", gone)
	}
	if fresh.Verdict != VerdictNew || fresh.HasOld || !fresh.HasNew {
		t.Fatalf("new row = %+v, want HasNew only", fresh)
	}
	if fresh.New != 9 || fresh.Unit != "B" {
		t.Fatalf("new row lost its candidate side: %+v", fresh)
	}
	if got := Regressions(deltas); got != 0 {
		t.Fatalf("missing/new counted as regressions: %d", got)
	}
	if got := MissingGated(deltas); got != 1 {
		t.Fatalf("MissingGated = %d, want 1 (the directed gone series)", got)
	}
	if got := MissingGated(Compare(artifactOf(func(r *Registry) { r.Gauge("ctx", "").Set(1) }), cand, 0.10)); got != 0 {
		t.Fatalf("undirected missing series gated: MissingGated = %d", got)
	}
}

// Histogram series compare on their scalar (weighted mean).
func TestCompareHistograms(t *testing.T) {
	ref := artifactOf(func(r *Registry) {
		r.Histogram("util", "", UtilBuckets()).SetBetter("lower").Observe(0.5, 10)
	})
	cand := artifactOf(func(r *Registry) {
		r.Histogram("util", "", UtilBuckets()).Observe(0.9, 10)
	})
	d := Compare(ref, cand, 0.10)[0]
	if d.Old != 0.5 || d.New != 0.9 {
		t.Fatalf("histogram scalars %g→%g, want 0.5→0.9", d.Old, d.New)
	}
	if d.Verdict != VerdictRegression {
		t.Fatalf("verdict = %s, want regression", d.Verdict)
	}
}
