package experiments

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/wafernet/fred/internal/netsim"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/sim"
	"github.com/wafernet/fred/internal/training"
	"github.com/wafernet/fred/internal/workload"
)

// memoStrat is a cheap training cell for the memo tests.
var memoStrat = parallelism.Strategy{MP: 1, DP: 20, PP: 1}

func mustRun(t *testing.T, s *Session, sys System, m *workload.Model) *training.Report {
	t.Helper()
	r, err := s.RunTraining(sys, m, memoStrat, 1)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func memoLen(s *Session) int {
	s.memo.mu.Lock()
	defer s.memo.mu.Unlock()
	return len(s.memo.entries)
}

// The memo keys a model by content: a freshly constructed equal model
// hits, and a variant with the same name but one changed layer misses.
func TestMemoKeysModelByContent(t *testing.T) {
	s := NewSession()
	first := mustRun(t, s, Baseline, workload.ResNet152())
	if again := mustRun(t, s, Baseline, workload.ResNet152()); again != first {
		t.Fatal("an equal model built afresh missed the memo")
	}
	variant := workload.ResNet152()
	variant.Layers[0].FwdFLOPs *= 2
	if got := mustRun(t, s, Baseline, variant); got == first {
		t.Fatal("a model with a changed layer but the same name hit the memo")
	}
	if mustRun(t, s, FredD, workload.ResNet152()) == first {
		t.Fatal("another system hit the memo")
	}
	if n := memoLen(s); n != 3 {
		t.Fatalf("memo holds %d entries, want 3", n)
	}
}

// An erroring or panicking cell leaves no entry, and the session keeps
// working afterwards.
func TestMemoSkipsFailedCells(t *testing.T) {
	s := NewSession()
	if _, err := s.RunTraining(Baseline, workload.ResNet152(), parallelism.Strategy{MP: 1, DP: 25, PP: 1}, 1); err == nil {
		t.Fatal("a strategy wider than the wafer did not error")
	}
	if _, err := s.RunTraining(Baseline, workload.ResNet152(), parallelism.Strategy{MP: 1, DP: 25, PP: 1}, 1); err == nil {
		t.Fatal("the repeated failing cell did not error")
	}
	for _, parallel := range []int{1, 2} {
		s.SetParallel(parallel)
		s.forEach("BogusSystem", 2, func(_ int, cs *Session) {
			cs.mustRunTraining(System("bogus"), workload.ResNet152(), memoStrat, 1)
		})
	}
	if s.Err() == nil {
		t.Fatal("panicking cells recorded no error")
	}
	if n := memoLen(s); n != 0 {
		t.Fatalf("failed cells left %d memo entries", n)
	}
	mustRun(t, s, Baseline, workload.ResNet152())
	if n := memoLen(s); n != 1 {
		t.Fatalf("memo holds %d entries after one good cell, want 1", n)
	}
}

// A blamed request never takes an unblamed entry: it simulates with
// blame and replaces the entry, which then serves both kinds.
func TestMemoBlamedNeverTakesUnblamed(t *testing.T) {
	s := NewSession()
	m := workload.ResNet152()
	plain := mustRun(t, s, FredD, m)
	if plain.CritPath != nil {
		t.Fatal("an unblamed run carries blame")
	}
	blamed := s.mustRunTrainingBlamed(FredD, m, memoStrat, 1)
	if blamed == plain || blamed.CritPath == nil {
		t.Fatal("a blamed request took the unblamed entry")
	}
	if blamed.Total != plain.Total || blamed.Breakdown != plain.Breakdown {
		t.Fatalf("blame changed the result: %v vs %v", blamed, plain)
	}
	if got := mustRun(t, s, FredD, m); got != blamed {
		t.Fatal("an unblamed request did not take the blamed entry")
	}
	if got := s.mustRunTrainingBlamed(FredD, m, memoStrat, 1); got != blamed {
		t.Fatal("a blamed request did not take the blamed entry")
	}
}

// Concurrent requests for one cell are single-flight: every caller gets
// the one report, and a blamed caller among them still gets blame.
func TestMemoSingleFlight(t *testing.T) {
	s := NewSession()
	const callers = 8
	reports := make([]*training.Report, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if i == callers-1 {
				reports[i], err = s.runTraining(FredD, workload.ResNet152(), memoStrat, 1, true)
			} else {
				reports[i], err = s.RunTraining(FredD, workload.ResNet152(), memoStrat, 1)
			}
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if reports[callers-1] == nil || reports[callers-1].CritPath == nil {
		t.Fatal("the blamed caller got no blame")
	}
	if n := memoLen(s); n != 1 {
		t.Fatalf("memo holds %d entries for one cell", n)
	}
	final := mustRun(t, s, FredD, workload.ResNet152())
	if final != reports[callers-1] {
		t.Fatal("the settled entry is not the blamed report")
	}
	for i, r := range reports {
		if r.Total != final.Total {
			t.Fatalf("caller %d got total %g, want %g", i, r.Total, final.Total)
		}
	}
}

// A session with any per-run observer simulates on every call, so each
// call still feeds its artifacts.
func TestObservedSessionSkipsMemo(t *testing.T) {
	observers := map[string]struct {
		attach func(s *Session)
		count  func(s *Session) int
	}{
		"tracer": {func(s *Session) { s.CollectTrace(true) },
			func(s *Session) int {
				n := 0
				for _, r := range s.records {
					if r.tr != nil {
						n++
					}
				}
				return n
			}},
		"linkstats": {func(s *Session) { s.CollectLinkStats(true) },
			func(s *Session) int { return len(s.LinkStatsTables()) }},
		"metrics": {func(s *Session) { s.CollectMetrics(true) },
			func(s *Session) int {
				n := 0
				for _, r := range s.records {
					if r.reg != nil {
						n++
					}
				}
				return n
			}},
		"critpath": {func(s *Session) { s.CollectCritPath(true) },
			func(s *Session) int { return len(s.CritPathCells()) }},
		"timeseries": {func(s *Session) { s.CollectTimeseries(true) },
			func(s *Session) int { return len(s.TimeseriesCells()) }},
	}
	for name, o := range observers {
		s := NewSession()
		o.attach(s)
		a := mustRun(t, s, Baseline, workload.ResNet152())
		b := mustRun(t, s, Baseline, workload.ResNet152())
		if a == b || a.Config.Wafer == nil {
			t.Errorf("%s: the observed session reused a report", name)
		}
		if a.Total != b.Total {
			t.Errorf("%s: repeated runs differ: %g vs %g", name, a.Total, b.Total)
		}
		if n := o.count(s); n != 2 {
			t.Errorf("%s: two runs fed %d artifacts, want 2", name, n)
		}
		if n := memoLen(s); n != 0 {
			t.Errorf("%s: the observed session stored %d memo entries", name, n)
		}
	}

	// A repeated study keeps one hotspot table per run, in order.
	s := NewSession()
	s.SetParallel(2)
	s.CollectLinkStats(true)
	s.Figure2()
	s.Figure2()
	tables := s.LinkStatsTables()
	if len(tables) != 2*len(transformerStrategies()) {
		t.Fatalf("two Figure 2 runs collected %d hotspot tables", len(tables))
	}
	for i, half := 0, len(tables)/2; i < half; i++ {
		if tables[i].CSV() != tables[half+i].CSV() {
			t.Fatalf("hotspot table %d differs between the two runs", i)
		}
	}
}

// Memoized results equal a fresh session's: every study below, run in
// `fredsim all` order on one session, prints what it prints on a
// session of its own, at -parallel 1 and 4.
func TestMemoMatchesFreshSession(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the training studies of fredsim all twice per width")
	}
	studies := []struct {
		name string
		run  func(s *Session) string
	}{
		{"fig2", func(s *Session) string { _, t := s.Figure2(); return t.CSV() }},
		{"fig10", func(s *Session) string { _, t := s.Figure10(false); return t.CSV() }},
		{"fig11a", func(s *Session) string { _, t := s.Figure11a(); return t.CSV() }},
		{"batch", func(s *Session) string { _, t := s.BatchSensitivity(); return t.CSV() }},
		{"profile", func(s *Session) string { return s.CommProfile(Baseline).CSV() + s.CommProfile(FredD).CSV() }},
		{"summary", func(s *Session) string { _, t := s.Summary(); return t.CSV() }},
	}
	for _, parallel := range []int{1, 4} {
		shared := NewSession()
		shared.SetParallel(parallel)
		for _, st := range studies {
			fresh := NewSession()
			fresh.SetParallel(parallel)
			if got, want := st.run(shared), st.run(fresh); got != want {
				t.Errorf("parallel %d: %s from the memo differs from a fresh session:\n%s\nwant:\n%s",
					parallel, st.name, got, want)
			}
		}
		if err := shared.Err(); err != nil {
			t.Fatal(err)
		}
		// Figure 2 (14 cells), Figure 10 (12) and Figure 11(a)'s Fred-D
		// half (14) are distinct; batch adds its 8 and 80 cells (4); the
		// rest repeat earlier cells.
		if n := memoLen(shared); n != 44 {
			t.Errorf("parallel %d: memo holds %d distinct cells, want 44", parallel, n)
		}
	}
}

// A memo entry does not keep the wafer alive: nothing reachable from
// a stored report is part of the simulated network.
func TestMemoEntryDropsWafer(t *testing.T) {
	s := NewSession()
	mustRun(t, s, Baseline, workload.ResNet152())
	s.mustRunTrainingBlamed(FredD, workload.GPT3(), defaultStrategy(workload.GPT3()), 16)
	banned := map[reflect.Type]bool{
		reflect.TypeOf((*netsim.Network)(nil)): true,
		reflect.TypeOf((*netsim.Link)(nil)):    true,
		reflect.TypeOf((*sim.Scheduler)(nil)):  true,
	}
	for key, e := range s.memo.entries {
		if e.report.Config.Wafer != nil {
			t.Fatalf("%s: memo entry still references its wafer", key.sys)
		}
		if path := reachesType(reflect.ValueOf(e.report), banned, map[uintptr]bool{}); path != "" {
			t.Fatalf("%s: memo entry reaches the network via %s", key.sys, path)
		}
	}
}

// reachesType walks everything reachable from v and returns the type
// path to the first value of a banned type, or "".
func reachesType(v reflect.Value, banned map[reflect.Type]bool, seen map[uintptr]bool) string {
	if !v.IsValid() {
		return ""
	}
	if banned[v.Type()] && !v.IsZero() {
		return v.Type().String()
	}
	walk := func(child reflect.Value, step string) string {
		if p := reachesType(child, banned, seen); p != "" {
			return step + " > " + p
		}
		return ""
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Map:
		if v.IsNil() || seen[v.Pointer()] {
			return ""
		}
		seen[v.Pointer()] = true
	}
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		return walk(v.Elem(), v.Type().String())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if p := walk(v.Field(i), v.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if p := walk(v.Index(i), v.Type().String()); p != "" {
				return p
			}
		}
	case reflect.Map:
		it := v.MapRange()
		for it.Next() {
			if p := walk(it.Value(), v.Type().String()); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestModelKeyCoversEveryField walks Model and Layer by reflection,
// perturbs each field in turn and asserts the key changes, so a field
// added later cannot silently alias two models. A field of a kind the
// walk does not know fails the test until the walk (and modelKey)
// learn it.
func TestModelKeyCoversEveryField(t *testing.T) {
	models := append(workload.Models(), workload.Transformer17B(), workload.Transformer1T())
	perturb := func(t *testing.T, v reflect.Value, path string) {
		t.Helper()
		switch v.Kind() {
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Float64:
			v.SetFloat(math.Nextafter(v.Float(), math.Inf(1)))
		case reflect.Int:
			v.SetInt(v.Int() + 1)
		case reflect.Bool:
			v.SetBool(!v.Bool())
		default:
			t.Fatalf("%s: field kind %s not covered by modelKey", path, v.Kind())
		}
	}
	for _, m := range models {
		base := modelKey(m)
		if modelKey(m) != base {
			t.Fatalf("%s: modelKey is not deterministic", m.Name)
		}
		mt := reflect.TypeOf(*m)
		for i := 0; i < mt.NumField(); i++ {
			name := mt.Field(i).Name
			if name == "Layers" {
				continue
			}
			c := *m
			perturb(t, reflect.ValueOf(&c).Elem().Field(i), "Model."+name)
			if modelKey(&c) == base {
				t.Errorf("%s: perturbing Model.%s leaves the key unchanged", m.Name, name)
			}
		}
		lt := reflect.TypeOf(workload.Layer{})
		for _, li := range []int{0, len(m.Layers) - 1} {
			for i := 0; i < lt.NumField(); i++ {
				c := *m
				c.Layers = append([]workload.Layer(nil), m.Layers...)
				perturb(t, reflect.ValueOf(&c.Layers[li]).Elem().Field(i), "Layer."+lt.Field(i).Name)
				if modelKey(&c) == base {
					t.Errorf("%s: perturbing layer %d's %s leaves the key unchanged", m.Name, li, lt.Field(i).Name)
				}
			}
		}
		// The layer list is length-prefixed: dropping a layer, or moving
		// bytes between the model's name and its first layer's, changes
		// the key.
		c := *m
		c.Layers = m.Layers[:len(m.Layers)-1]
		if modelKey(&c) == base {
			t.Errorf("%s: dropping the last layer leaves the key unchanged", m.Name)
		}
		c = *m
		c.Layers = append([]workload.Layer(nil), m.Layers...)
		c.Name += c.Layers[0].Name[:1]
		c.Layers[0].Name = c.Layers[0].Name[1:]
		if modelKey(&c) == base {
			t.Errorf("%s: shifting a byte from layer 0's name into the model's leaves the key unchanged", m.Name)
		}
	}
}
