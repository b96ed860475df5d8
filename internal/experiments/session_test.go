package experiments

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/wafernet/fred/internal/obs"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/workload"
)

// The Session thread-safety contract: concurrent RunTraining calls on
// one session with link-stats collection enabled must be race-free
// (run with -race) and lose no hotspot table. Regression test for the
// formerly unsynchronized append to the package-global table slice.
func TestSessionConcurrentRunTraining(t *testing.T) {
	s := NewSession()
	s.CollectLinkStats(true)
	strat := parallelism.Strategy{MP: 1, DP: 20, PP: 1}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, err := s.RunTraining(Baseline, workload.ResNet152(), strat, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if r.Total <= 0 {
				t.Error("training produced non-positive iteration time")
			}
		}()
	}
	wg.Wait()
	if n := len(s.LinkStatsTables()); n != 2 {
		t.Fatalf("collected %d hotspot tables, want 2", n)
	}
}

// csvOf renders a driver run (tables plus collected hotspot tables) at
// a given pool size to one CSV blob.
func csvOf(t *testing.T, parallel int, drive func(s *Session) string) string {
	t.Helper()
	s := NewSession()
	s.SetParallel(parallel)
	s.CollectLinkStats(true)
	out := drive(s)
	for _, tbl := range s.LinkStatsTables() {
		out += tbl.CSV()
	}
	return out
}

// The determinism guarantee behind -parallel: every pool size emits
// byte-identical output. MeshIOStudy exercises plain fan-out cheaply;
// Figure 2 additionally exercises hotspot-table slot merging (one
// table per training cell).
func TestParallelMatchesSequential(t *testing.T) {
	drivers := map[string]func(s *Session) string{
		"meshio": func(s *Session) string { _, tbl := s.MeshIOStudy(); return tbl.CSV() },
		"fig2":   func(s *Session) string { _, tbl := s.Figure2(); return tbl.CSV() },
	}
	for name, drive := range drivers {
		seq := csvOf(t, 1, drive)
		for _, n := range []int{2, 4} {
			if par := csvOf(t, n, drive); par != seq {
				t.Errorf("%s: -parallel %d output differs from sequential:\nseq:\n%s\npar:\n%s",
					name, n, seq, par)
			}
		}
	}
}

// The golden acceptance check over the headline artifact: the Figure
// 10 CSV (and its hotspot tables) is byte-identical between
// -parallel 1 and -parallel 4.
func TestFigure10CSVParallelGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full Figure 10 sweep twice")
	}
	drive := func(s *Session) string { _, tbl := s.Figure10(false); return tbl.CSV() }
	seq := csvOf(t, 1, drive)
	par := csvOf(t, 4, drive)
	if seq != par {
		t.Fatalf("Figure 10 CSV differs between -parallel 1 and -parallel 4:\nseq:\n%s\npar:\n%s", seq, par)
	}
}

// A token attached with ObserveCell survives a sequential fan-out: the
// cells run on the session itself, and finishing them must restore the
// token rather than clear it, so later builds still report into it.
// With an engine attached, each cell's own token replaces it only
// while the cell runs.
func TestForEachKeepsObservedCell(t *testing.T) {
	for _, withEngine := range []bool{false, true} {
		engine := obs.NewEngine(nil)
		tok := engine.CellStarted("job", 0)
		s := NewSession()
		s.ObserveCell(tok)
		s.SetParallel(1)
		if withEngine {
			s.SetProgress(obs.NewEngine(nil))
		}
		s.forEach("Clean", 2, func(int, *Session) {})
		if s.cellTok != tok {
			t.Fatalf("engine=%v: forEach dropped the observed cell token", withEngine)
		}
		mustRun(t, s, FredD, workload.ResNet152())
		snap := engine.Snapshot()
		if len(snap.Running) != 1 || snap.Running[0].SimTimeS <= 0 {
			t.Fatalf("engine=%v: a training run after forEach did not report into the token: %+v", withEngine, snap.Running)
		}
	}
}

// allCellsTotal and allStudies pin what the progress engine counts
// over one All pass: every study's own cells, never the sweep's.
const (
	allCellsTotal = 193
	allStudies    = 27
)

// The progress engine counts the cells of every study in All — nested
// fan-outs on child sessions included — and the sweep adds none, at
// every pool width.
func TestAllProgressCountsStudyCells(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every study twice")
	}
	for _, parallel := range []int{1, 4} {
		engine := obs.NewEngine(nil)
		s := NewSession()
		s.SetParallel(parallel)
		s.SetProgress(engine)
		s.All(false)
		if err := s.Err(); err != nil {
			t.Fatal(err)
		}
		snap := engine.Snapshot()
		if snap.CellsTotal != allCellsTotal || snap.CellsDone != snap.CellsTotal || snap.Studies != allStudies {
			t.Errorf("-parallel %d: %d/%d cells over %d studies, want %d/%d over %d",
				parallel, snap.CellsDone, snap.CellsTotal, snap.Studies, allCellsTotal, allCellsTotal, allStudies)
		}
		if len(snap.Running) != 0 {
			t.Errorf("-parallel %d: cells still running after All: %+v", parallel, snap.Running)
		}
	}
}

// The shared pool under stress: outer cells run nested fan-outs two
// levels deep, and every outer cell asks for the same few training
// cells, so the memo's single-flight waits on cells other workers are
// running. At width 2 and 4 the sweep must finish, with results equal
// to width 1 — and, with link stats on, hotspot tables in width-1
// order.
func TestSharedPoolNestedFanOut(t *testing.T) {
	strats := []parallelism.Strategy{memoStrat, {MP: 2, DP: 10, PP: 1}}
	systems := []System{Baseline, FredD}
	sweep := func(parallel int, linkStats bool) string {
		s := NewSession()
		s.SetParallel(parallel)
		s.CollectLinkStats(linkStats)
		totals := make([][][]float64, 8)
		s.forEach("outer", len(totals), func(i int, cs *Session) {
			totals[i] = make([][]float64, len(systems))
			cs.forEach("middle", len(systems), func(j int, ms *Session) {
				totals[i][j] = make([]float64, len(strats))
				ms.forEach("inner", len(strats), func(k int, is *Session) {
					sys := systems[(i+j)%len(systems)]
					totals[i][j][k] = is.mustRunTraining(sys, workload.ResNet152(), strats[k], 1).Total
				})
			})
		})
		if err := s.Err(); err != nil {
			return err.Error()
		}
		out := fmt.Sprint(totals)
		for _, tbl := range s.LinkStatsTables() {
			out += tbl.CSV()
		}
		return out
	}
	for _, linkStats := range []bool{false, true} {
		want := sweep(1, linkStats)
		for _, parallel := range []int{2, 4} {
			done := make(chan string, 1)
			go func() { done <- sweep(parallel, linkStats) }()
			select {
			case got := <-done:
				if got != want {
					t.Errorf("linkstats=%v -parallel %d differs from -parallel 1:\n got %s\nwant %s", linkStats, parallel, got, want)
				}
			case <-time.After(2 * time.Minute):
				t.Fatalf("linkstats=%v -parallel %d: nested fan-out did not finish", linkStats, parallel)
			}
		}
	}
}
