package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/timeseries"
)

// TestRunExitCodes: the CLI error conventions — unknown experiment,
// unknown flag, or missing argument exit 2 with usage on stderr.
func TestRunExitCodes(t *testing.T) {
	cases := []struct {
		name      string
		args      []string
		code      int
		stderrHas string
	}{
		{"no experiment", nil, 2, "usage: fredsim"},
		{"unknown experiment", []string{"fig999"}, 2, `unknown experiment "fig999"`},
		{"unknown experiment via -study", []string{"-study", "nope"}, 2, `unknown experiment "nope"`},
		{"unknown flag", []string{"fig1", "-bogus"}, 2, "flag provided but not defined"},
		{"trailing argument", []string{"fig1", "-csv", "extra"}, 2, `unexpected argument "extra"`},
		{"valid cheap experiment", []string{"fig1"}, 0, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.code {
				t.Fatalf("run(%v) = %d, want %d (stderr: %s)", tc.args, got, tc.code, stderr.String())
			}
			if tc.code == 2 && !strings.Contains(stderr.String(), "usage: fredsim") {
				t.Errorf("exit 2 without usage on stderr: %q", stderr.String())
			}
			if tc.stderrHas != "" && !strings.Contains(stderr.String(), tc.stderrHas) {
				t.Errorf("stderr %q missing %q", stderr.String(), tc.stderrHas)
			}
		})
	}
}

// TestDocListsEveryStudy: the package doc lists every registry entry
// with the description the usage text prints, so the two cannot drift.
func TestDocListsEveryStudy(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	var text bytes.Buffer
	usage(&text)
	for _, st := range experiments.Studies {
		line := fmt.Sprintf("  %-11s%s\n", st.Name, st.Desc)
		if !strings.Contains(text.String(), line) {
			t.Errorf("usage text lacks %q", line)
		}
		if !bytes.Contains(src, []byte("//\t"+line[2:])) {
			t.Errorf("package doc lacks %q", line[2:])
		}
	}
}

// TestRunTimeseriesArtifact: the -timeseries flag writes a decodable
// fred-timeseries artifact with one labeled cell per simulation.
func TestRunTimeseriesArtifact(t *testing.T) {
	out := filepath.Join(t.TempDir(), "ts.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fig2", "-parallel", "2", "-timeseries", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	art, err := timeseries.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if art.Manifest.Tool != "fredsim" || art.Manifest.Command != "fig2" {
		t.Errorf("manifest = %+v", art.Manifest)
	}
	if len(art.Cells) == 0 {
		t.Fatal("no recorded cells in artifact")
	}
	if art.Cells[0].Label == "" || len(art.Cells[0].Series) == 0 {
		t.Errorf("first cell = %+v", art.Cells[0])
	}
	if !strings.Contains(stderr.String(), "flight-recorder cells") {
		t.Errorf("no write confirmation on stderr: %q", stderr.String())
	}
}

// TestRunProgressStatusLine: -progress renders the self-overwriting
// status line and terminates it with a newline.
func TestRunProgressStatusLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"fig2", "-progress"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	se := stderr.String()
	if !strings.Contains(se, "\rfredsim: Figure2 ") || !strings.Contains(se, "cells · elapsed") {
		t.Errorf("no status line on stderr: %q", se)
	}
	if !strings.HasSuffix(se, "\n") {
		t.Errorf("status line not terminated: %q", se)
	}
}

// TestAllCSVPinned: `fredsim all -csv` hashes to the value the
// benchmark pins, at -parallel 1, 2 and 4 — the sweep memo, the shared
// pool and every other speed-up must leave the paper tables
// byte-identical.
func TestAllCSVPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fredsim all twice")
	}
	pin, err := os.ReadFile(filepath.Join("..", "..", "bench", "fredbench", "testdata", "paper-all.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(pin))[0]
	for _, parallel := range []string{"1", "2", "4"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"all", "-csv", "-parallel", parallel}, &stdout, &stderr); code != 0 {
			t.Fatalf("-parallel %s: run = %d, stderr: %s", parallel, code, stderr.String())
		}
		sum := sha256.Sum256(stdout.Bytes())
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("-parallel %s: fredsim all -csv hashes to %s, want %s", parallel, got, want)
		}
	}
}

// observerFlags returns the flags that write the three observer
// artifacts into dir, one file per artifact named after its flag.
func observerFlags(dir string) []string {
	var flags []string
	for _, name := range []string{"metrics", "critpath", "timeseries"} {
		flags = append(flags, "-"+name, filepath.Join(dir, name))
	}
	return flags
}

// checkPins compares each file in dir against its SHA-256 sum in the
// pin file (lines of "<sum>  <name>", the sha256sum format).
func checkPins(t *testing.T, dir, pinFile, what string) {
	t.Helper()
	pin, err := os.ReadFile(filepath.Join("testdata", pinFile))
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
			t.Errorf("%s: %s hashes to %s, want %s", what, name, got, want)
		}
	}
}

// TestFig2ArtifactsGolden: the three observer artifacts of
// `fredsim fig2` hash to the SHA-256 sums in
// testdata/fig2-artifacts.sha256, so a change to an artifact encoder
// cannot move a byte unnoticed.
func TestFig2ArtifactsGolden(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if code := run(append([]string{"fig2"}, observerFlags(dir)...), &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, stderr: %s", code, stderr.String())
	}
	checkPins(t, dir, "fig2-artifacts.sha256", "fig2")
}

// TestAllArtifactsGolden: the observed sweep `fredsim all -csv
// -linkstats` with every observer artifact — its stdout and the three
// artifacts hash to testdata/all-artifacts.sha256 at -parallel 1 and
// 4. It guards every study's observer output, not only Figure 2's.
func TestAllArtifactsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the observed fredsim all twice")
	}
	for _, parallel := range []string{"1", "4"} {
		dir := t.TempDir()
		args := append([]string{"all", "-csv", "-linkstats", "-parallel", parallel}, observerFlags(dir)...)
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("-parallel %s: run = %d, stderr: %s", parallel, code, stderr.String())
		}
		if err := os.WriteFile(filepath.Join(dir, "stdout"), stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		checkPins(t, dir, "all-artifacts.sha256", "all -parallel "+parallel)
	}
}
