package metrics

// Delta is one row of an artifact comparison: a series matched by name
// between an old (reference) and a new (candidate) artifact.
type Delta struct {
	Name   string
	Unit   string
	Better string  // direction inherited from the reference series
	Old    float64 // reference scalar (Scalar() of the series)
	New    float64
	HasOld bool
	HasNew bool
	// Rel is the signed relative change (new−old)/|old|; when the
	// reference is zero it is the absolute change instead (AbsBase).
	Rel     float64
	AbsBase bool
	// Tol is the tolerance the verdict used: the reference series' own
	// Tolerance when set, else the global threshold.
	Tol     float64
	Verdict Verdict
}

// Verdict classifies one comparison row.
type Verdict string

// Comparison verdicts. Regression fails a gate, and so does Missing on
// a directed series: deleting a gated benchmark must not silently
// un-gate it. Missing on an undirected series and New mark series
// present on one side only (schema drift worth a note, not a failure),
// Info marks undirected series.
const (
	VerdictOK         Verdict = "ok"
	VerdictRegression Verdict = "regression"
	VerdictImproved   Verdict = "improved"
	VerdictInfo       Verdict = "info"
	VerdictMissing    Verdict = "missing"
	VerdictNew        Verdict = "new"
)

// Compare matches the candidate's series against the reference by
// name, in the reference's order (candidate-only series append at the
// end), and classifies each pair. threshold is the relative tolerance
// for series that don't carry their own; direction comes from the
// reference series' Better field — series without one are
// informational and never regress. A zero reference value switches the
// row to absolute comparison (a 0→anything change has no meaningful
// ratio; the zero-alloc gates rely on this).
func Compare(ref, cand *Artifact, threshold float64) []Delta {
	byName := make(map[string]*SeriesData, len(cand.Series))
	for i := range cand.Series {
		byName[cand.Series[i].Name] = &cand.Series[i]
	}
	var out []Delta
	for i := range ref.Series {
		o := &ref.Series[i]
		d := Delta{
			Name:   o.Name,
			Unit:   o.Unit,
			Better: o.Better,
			Old:    o.Scalar(),
			HasOld: true,
			Tol:    threshold,
		}
		if o.Tolerance > 0 {
			d.Tol = o.Tolerance
		}
		n, ok := byName[o.Name]
		if !ok {
			d.Verdict = VerdictMissing
			out = append(out, d)
			continue
		}
		delete(byName, o.Name)
		d.HasNew = true
		d.New = n.Scalar()
		diff := d.New - d.Old
		if d.Old != 0 {
			d.Rel = diff / abs(d.Old)
		} else {
			d.Rel = diff
			d.AbsBase = true
		}
		d.Verdict = classify(d)
		out = append(out, d)
	}
	// Candidate-only series, in the candidate's order.
	for i := range cand.Series {
		n := &cand.Series[i]
		if _, gone := byName[n.Name]; !gone {
			continue
		}
		out = append(out, Delta{
			Name: n.Name, Unit: n.Unit, New: n.Scalar(), HasNew: true,
			Tol: threshold, Verdict: VerdictNew,
		})
	}
	return out
}

func classify(d Delta) Verdict {
	if d.Better == "" {
		return VerdictInfo
	}
	bad := d.Rel // positive change is bad for better:lower
	if d.Better == "higher" {
		bad = -d.Rel
	}
	switch {
	case bad > d.Tol:
		return VerdictRegression
	case bad < -d.Tol:
		return VerdictImproved
	}
	return VerdictOK
}

// Regressions counts the rows of a comparison that regressed.
func Regressions(deltas []Delta) int {
	n := 0
	for _, d := range deltas {
		if d.Verdict == VerdictRegression {
			n++
		}
	}
	return n
}

// MissingGated counts the directed reference series the candidate
// lacks. Each fails a gate like a regression.
func MissingGated(deltas []Delta) int {
	n := 0
	for _, d := range deltas {
		if d.Verdict == VerdictMissing && d.Better != "" {
			n++
		}
	}
	return n
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
