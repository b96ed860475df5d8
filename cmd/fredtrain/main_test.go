package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	fredapi "github.com/wafernet/fred"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

func TestLookupModel(t *testing.T) {
	for _, name := range []string{"resnet152", "t17b", "gpt3", "t1t", "RESNET", "Transformer17B"} {
		if _, err := lookupModel(name); err != nil {
			t.Errorf("lookupModel(%q): %v", name, err)
		}
	}
	if _, err := lookupModel("bert"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestLookupSchedule(t *testing.T) {
	if s, err := lookupSchedule("GPipe"); err != nil || s.String() != "GPipe" {
		t.Errorf("gpipe lookup: %v %v", s, err)
	}
	if s, err := lookupSchedule("1f1b"); err != nil || s.String() != "1F1B" {
		t.Errorf("1f1b lookup: %v %v", s, err)
	}
	if _, err := lookupSchedule("zero-bubble"); err == nil {
		t.Error("unknown schedule accepted")
	}
}

// trainArtifact runs the fredtrain metrics path (build under a
// metrics-collecting session, simulate, flush, record, export) for a
// given worker-pool size and returns the encoded artifact.
func trainArtifact(t *testing.T, parallel int) []byte {
	t.Helper()
	m, _ := lookupModel("t17b")
	session := experiments.NewSession()
	session.SetParallel(parallel)
	session.CollectMetrics(true)
	wafer := session.Build(experiments.Baseline)
	r, err := training.Simulate(training.Config{
		Wafer:               wafer,
		Model:               m,
		Strategy:            workloadStrategy(m),
		MinibatchPerReplica: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	net := wafer.Network()
	net.FlushMetrics()
	r.RecordMetrics(net.Metrics())
	data, err := session.Metrics().Export(metrics.Manifest{
		Tool:            "fredtrain",
		Workload:        m.Name,
		System:          "Baseline",
		Strategy:        workloadStrategy(m).String(),
		BatchPerReplica: 16,
		Schedule:        training.ScheduleGPipe.String(),
	}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func workloadStrategy(m *workload.Model) fredapi.Strategy {
	return fredapi.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP}
}

// The fredtrain golden gate: the exported metrics artifact is
// byte-identical regardless of the session's worker-pool size and
// across repeated runs.
func TestTrainMetricsByteIdentical(t *testing.T) {
	seq := trainArtifact(t, 1)
	if !bytes.Contains(seq, []byte(`"schema": "fred-metrics/v1"`)) {
		t.Fatalf("artifact missing schema header:\n%.200s", seq)
	}
	if !bytes.Contains(seq, []byte("npu/000/idle_s")) {
		t.Fatal("artifact missing per-NPU attribution series")
	}
	for _, n := range []int{2, 4} {
		if got := trainArtifact(t, n); !bytes.Equal(got, seq) {
			t.Fatalf("pool size %d artifact differs from sequential", n)
		}
	}
}

// TestArtifactsGolden: `fredtrain -model t17b -system Fred-D -metrics
// -critpath` writes artifacts that hash to the SHA-256 sums in
// testdata/t17b-fred-d.sha256, so a change to an artifact encoder
// cannot move a byte unnoticed.
func TestArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	args := []string{"-model", "t17b", "-system", "Fred-D"}
	for _, name := range []string{"metrics", "critpath"} {
		args = append(args, "-"+name, filepath.Join(dir, name))
	}
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	pin, err := os.ReadFile(filepath.Join("testdata", "t17b-fred-d.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(pin)), "\n") {
		want, name, _ := strings.Cut(line, "  ")
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s artifact hashes to %s, want %s", name, got, want)
		}
	}
}
