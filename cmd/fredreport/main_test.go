package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/metrics"
)

func writeArtifact(t *testing.T, dir, name string, build func(r *metrics.Registry)) string {
	t.Helper()
	r := metrics.NewRegistry()
	build(r)
	path := filepath.Join(dir, name)
	if err := r.Export(metrics.Manifest{Tool: "test"}).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// The acceptance gate: comparing a reference against an intentionally
// perturbed candidate exits non-zero and prints a readable delta row
// for the regressed series.
func TestCompareDetectsRegression(t *testing.T) {
	dir := t.TempDir()
	ref := writeArtifact(t, dir, "ref.json", func(r *metrics.Registry) {
		r.Gauge("bench/Recompute/ns_per_op", "ns/op").SetBetter("lower").Set(8780)
		r.Gauge("bench/Recompute/allocs_per_op", "allocs/op").SetBetter("lower").Set(0)
		r.Counter("net/flows_started", "").Add(348)
	})
	cand := writeArtifact(t, dir, "cand.json", func(r *metrics.Registry) {
		r.Gauge("bench/Recompute/ns_per_op", "ns/op").Set(80000) // ~9× slower
		r.Gauge("bench/Recompute/allocs_per_op", "allocs/op").Set(280)
		r.Counter("net/flows_started", "").Add(348)
	})
	var buf bytes.Buffer
	code, err := compare(ref, cand, 0.10, false, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code %d for regressed candidate, want 1", code)
	}
	out := buf.String()
	for _, want := range []string{"bench/Recompute/ns_per_op", "regression", "2 series regressed"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// A directed reference series the candidate lacks fails the gate and
// is named in the table; an undirected one only earns the note.
func TestCompareMissingDirectedSeriesFails(t *testing.T) {
	dir := t.TempDir()
	ref := writeArtifact(t, dir, "ref.json", func(r *metrics.Registry) {
		r.Gauge("bench/Kept/ns_per_op", "ns/op").SetBetter("lower").Set(1000)
		r.Gauge("bench/Gone/allocs_per_op", "allocs/op").SetBetter("lower").Set(0)
		r.Gauge("bench/Context/ns_per_op", "ns/op").Set(5)
	})
	cand := writeArtifact(t, dir, "cand.json", func(r *metrics.Registry) {
		r.Gauge("bench/Kept/ns_per_op", "ns/op").Set(1000)
	})
	var buf bytes.Buffer
	code, err := compare(ref, cand, 0.10, false, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Fatalf("exit code %d with a gated series missing, want 1\n%s", code, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"bench/Gone/allocs_per_op", "missing", "1 gated series missing from the candidate", "1 undirected reference series absent"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "bench/Context/ns_per_op") {
		t.Errorf("undirected missing series got a row:\n%s", out)
	}
	if strings.Contains(out, "series regressed") {
		t.Errorf("missing series reported as regressed:\n%s", out)
	}
}

func TestCompareCleanPass(t *testing.T) {
	dir := t.TempDir()
	build := func(r *metrics.Registry) {
		r.Gauge("bench/X/ns_per_op", "ns/op").SetBetter("lower").Set(1000)
	}
	ref := writeArtifact(t, dir, "a.json", build)
	cand := writeArtifact(t, dir, "b.json", func(r *metrics.Registry) {
		r.Gauge("bench/X/ns_per_op", "ns/op").Set(1050) // +5% within 10%
		r.Gauge("bench/Y/ns_per_op", "ns/op").Set(5)    // new series: note only
	})
	var buf bytes.Buffer
	code, err := compare(ref, cand, 0.10, false, &buf)
	if err != nil || code != 0 {
		t.Fatalf("clean compare: code %d err %v\n%s", code, err, buf.String())
	}
	if !strings.Contains(buf.String(), "absent from the reference") {
		t.Errorf("new-series note missing:\n%s", buf.String())
	}
	// CSV mode renders too.
	buf.Reset()
	if code, err := compare(ref, cand, 0.10, true, &buf); err != nil || code != 0 {
		t.Fatalf("csv compare: code %d err %v", code, err)
	}
	if !strings.Contains(buf.String(), "bench/X/ns_per_op") {
		t.Errorf("csv output missing series:\n%s", buf.String())
	}
}

func TestParseBench(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: github.com/wafernet/fred/internal/netsim
cpu: fake
BenchmarkRecompute-4     272690      8780 ns/op          0 B/op        0 allocs/op
BenchmarkFlowChurn-4     114218     10462 ns/op        369 B/op        8 allocs/op
BenchmarkNoMem           99999       123.5 ns/op
PASS
ok   github.com/wafernet/fred/internal/netsim  5.0s`
	reg, n, err := parseBench(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", n)
	}
	for name, want := range map[string]float64{
		"bench/Recompute/ns_per_op":     8780,
		"bench/Recompute/allocs_per_op": 0,
		"bench/FlowChurn/ns_per_op":     10462,
		"bench/FlowChurn/bytes_per_op":  369,
		"bench/FlowChurn/allocs_per_op": 8,
		"bench/NoMem/ns_per_op":         123.5,
	} {
		s := reg.Lookup(name)
		if s == nil {
			t.Fatalf("missing series %s", name)
		}
		if s.Value() != want {
			t.Errorf("%s = %g, want %g", name, s.Value(), want)
		}
		if s.Better() != "lower" {
			t.Errorf("%s not better:lower", name)
		}
	}
	if reg.Lookup("bench/NoMem/bytes_per_op") != nil {
		t.Error("memoryless benchmark grew a bytes series")
	}
}

// Malformed memory fields must be reported, not silently recorded as 0
// and waved through the regression gate.
func TestParseBenchMalformedMemFields(t *testing.T) {
	bad := "BenchmarkX-4 100 10 ns/op 3.6.9 B/op 8 allocs/op\n"
	if _, _, err := parseBench(strings.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "B/op") {
		t.Fatalf("malformed B/op: got err %v, want bad B/op error", err)
	}
	huge := strings.Repeat("9", 400) // overflows float64
	bad2 := "BenchmarkY-4 100 10 ns/op 1 B/op " + huge + " allocs/op\n"
	if _, _, err := parseBench(strings.NewReader(bad2)); err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("overflowing allocs/op: got err %v, want bad allocs/op error", err)
	}
}

// Round trip: parsed bench output compares clean against itself and
// regresses against a slower run.
func TestBenchRoundTripGate(t *testing.T) {
	dir := t.TempDir()
	fast := "BenchmarkRecompute-2 100 8780 ns/op 0 B/op 0 allocs/op\n"
	slow := "BenchmarkRecompute-8 100 98780 ns/op 15312 B/op 280 allocs/op\n"
	parse := func(text, name string) string {
		reg, _, err := parseBench(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := reg.Export(metrics.Manifest{Tool: "test"}).WriteFile(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ref := parse(fast, "fast.json")
	var buf bytes.Buffer
	if code, _ := compare(ref, parse(fast, "same.json"), 0.10, false, &buf); code != 0 {
		t.Fatalf("self-compare failed:\n%s", buf.String())
	}
	if code, _ := compare(ref, parse(slow, "slow.json"), 4.0, false, &buf); code != 1 {
		t.Fatalf("10× regression passed the gate:\n%s", buf.String())
	}
}
