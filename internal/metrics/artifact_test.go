package metrics

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"testing"
)

func sampleRegistry() *Registry {
	r := NewRegistry()
	r.Counter("net/flows_started", "").Add(12)
	r.Gauge("bench/x/ns_per_op", "ns/op").SetBetter("lower").Set(8780)
	h := r.Histogram("link/a/util", "", UtilBuckets())
	h.Observe(0.5, 3)
	h.Observe(0.95, 1)
	return r
}

func TestArtifactRoundTrip(t *testing.T) {
	m := Manifest{Tool: "test", Workload: "t17b", System: "Fred-D",
		Strategy: "MP(3)-DP(3)-PP(2)", BatchPerReplica: 16, Schedule: "GPipe"}
	art := withTolerance(sampleRegistry().Export(m), "bench/x/ns_per_op", 2)
	if art.Schema != Schema {
		t.Fatalf("schema %q", art.Schema)
	}
	if art.Manifest.EngineVersion != EngineVersion {
		t.Fatal("Export did not stamp the engine version")
	}
	data, err := art.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) {
		t.Fatal("artifact is not valid JSON")
	}
	back, err := Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != 3 {
		t.Fatalf("round-trip kept %d series, want 3", len(back.Series))
	}
	if back.Series[0].Scalar() != 12 {
		t.Fatalf("counter scalar = %g", back.Series[0].Scalar())
	}
	g := back.Series[1]
	if g.Scalar() != 8780 || g.Better != "lower" || g.Tolerance != 2 {
		t.Fatalf("gauge lost metadata: %+v", g)
	}
	hd := back.Series[2]
	if hd.Count != 4 || hd.Max != 0.95 || len(hd.Buckets) != 2 {
		t.Fatalf("histogram data: %+v", hd)
	}
	if hd.P95 < 0.9 {
		t.Fatalf("p95 = %g, want near max", hd.P95)
	}
	if want := (0.5*3 + 0.95) / 4; hd.Scalar() != want {
		t.Fatalf("histogram scalar = %g, want mean %g", hd.Scalar(), want)
	}
}

// Two exports of the same state are byte-identical — the foundation of
// the -parallel golden gate.
func TestArtifactEncodeDeterministic(t *testing.T) {
	m := Manifest{Tool: "test"}
	a, _ := sampleRegistry().Export(m).Encode()
	b, _ := sampleRegistry().Export(m).Encode()
	if !bytes.Equal(a, b) {
		t.Fatal("identical registries encode to different bytes")
	}
}

func TestDecodeRejects(t *testing.T) {
	if _, err := Decode([]byte("not json")); err == nil {
		t.Fatal("accepted invalid JSON")
	}
	if _, err := Decode([]byte(`{"schema":"other/v1"}`)); err == nil {
		t.Fatal("accepted foreign schema")
	}
	if _, err := Decode([]byte(`{"schema":"fred-metrics/v9"}`)); err != nil {
		t.Fatalf("rejected future schema version: %v", err)
	}
}

func TestArtifactFileIO(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.json")
	art := sampleRegistry().Export(Manifest{Tool: "test"})
	if err := art.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Series) != len(art.Series) {
		t.Fatal("file round-trip lost series")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file read succeeded")
	}
}
