package jsonw_test

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"github.com/wafernet/fred/internal/critpath"
	"github.com/wafernet/fred/internal/experiments"
	"github.com/wafernet/fred/internal/jsonw"
	"github.com/wafernet/fred/internal/metrics"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/serve"
	"github.com/wafernet/fred/internal/timeseries"
	"github.com/wafernet/fred/internal/workload"
)

// The oracle for every test here is encoding/json: a document the
// Writer produces must be byte-identical to json.MarshalIndent(v, "",
// "  ") plus a newline, and a value encoding/json rejects must be an
// error.

var specialStrings = []string{
	"", "a", "<script>&amp;</script>", "a\x00b\x01c\x1f", "\b\f\n\r\t\"\\/",
	"\x7f", "\xff", "bad\xc3(utf8", "\xed\xa0\x80", "line\u2028para\u2029",
	"L0->L1", "ünïcödé 日本", "\U0001F600",
}

var specialFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1.5e-7, 123456789.125,
	1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1), -1e-6,
	1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
	1e-9, 1e-10, 1e20, 1e100, 1e-300,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	0x1p-1022, math.Nextafter(0x1p-1022, 0),
	math.MaxFloat64, -math.MaxFloat64,
	6966, -42, 28193439318016, 1e15 - 1, 1e15, -1e15, 1<<53 + 2, 1e16,
}

var nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}

// gen draws a document's values from fuzz bytes; past the end of the
// input every draw is zero.
type gen struct {
	data []byte
	// finite excludes NaN and ±Inf, so most documents encode.
	finite bool
}

func (g *gen) byte() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *gen) u64() uint64 {
	var buf [8]byte
	for i := range buf {
		buf[i] = g.byte()
	}
	return binary.LittleEndian.Uint64(buf[:])
}

func (g *gen) str() string {
	b := int(g.byte())
	if b < 3*len(specialStrings) {
		return specialStrings[b%len(specialStrings)]
	}
	n := b % 12
	if n > len(g.data) {
		n = len(g.data)
	}
	s := string(g.data[:n])
	g.data = g.data[n:]
	return s
}

func (g *gen) float() float64 {
	b := int(g.byte())
	switch {
	case b < 5*len(specialFloats):
		return specialFloats[b%len(specialFloats)]
	case b < 200:
		return float64(int64(g.u64()) >> (b % 64))
	case b >= 253 && !g.finite:
		return nonFinite[b-253]
	}
	f := math.Float64frombits(g.u64())
	if g.finite && (math.IsNaN(f) || math.IsInf(f, 0)) {
		return 0
	}
	return f
}

func (g *gen) int() int64 {
	switch b := g.byte(); {
	case b < 64:
		return 0
	case b < 200:
		return int64(b) - 128
	case b < 210:
		return math.MaxInt64
	case b < 220:
		return math.MinInt64
	}
	return int64(g.u64())
}

// count draws a slice length: -1 for a nil slice, 0 for an empty one.
func (g *gen) count() int { return int(g.byte()%7) - 1 }

func (g *gen) floats() []float64 {
	n := g.count()
	if n < 0 {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = g.float()
	}
	return out
}

func (g *gen) manifest() metrics.Manifest {
	m := metrics.Manifest{
		Tool: g.str(), Command: g.str(), Workload: g.str(), System: g.str(),
		Strategy: g.str(), BatchPerReplica: int(g.int()), Schedule: g.str(),
		Seed: g.int(), EngineVersion: g.str(), ConfigHash: g.str(),
	}
	if n := g.count(); n >= 0 {
		m.Notes = make([]string, n)
		for i := range m.Notes {
			m.Notes[i] = g.str()
		}
	}
	return m
}

func (g *gen) metricsArtifact() *metrics.Artifact {
	a := &metrics.Artifact{Schema: g.str(), Manifest: g.manifest()}
	if n := g.count(); n >= 0 {
		a.Series = make([]metrics.SeriesData, n)
		for i := range a.Series {
			d := metrics.SeriesData{
				Name: g.str(), Kind: g.str(), Unit: g.str(), Better: g.str(),
				Tolerance: g.float(), Count: g.float(), Sum: g.float(), Min: g.float(),
				Max: g.float(), P50: g.float(), P95: g.float(),
			}
			if g.byte()%2 == 1 {
				v := g.float()
				d.Value = &v
			}
			if n := g.count(); n >= 0 {
				d.Buckets = make([]metrics.Bucket, n)
				for j := range d.Buckets {
					d.Buckets[j] = metrics.Bucket{LE: g.float(), Overflow: g.byte()%2 == 1, W: g.float()}
				}
			}
			a.Series[i] = d
		}
	}
	return a
}

func (g *gen) timeseriesArtifact() *timeseries.Artifact {
	a := &timeseries.Artifact{Schema: g.str(), Manifest: g.manifest()}
	if n := g.count(); n >= 0 {
		a.Cells = make([]timeseries.Cell, n)
		for i := range a.Cells {
			c := timeseries.Cell{Label: g.str(), IntervalS: g.float(), Decimations: int(g.int())}
			if n := g.count(); n >= 0 {
				c.Series = make([]timeseries.SeriesData, n)
				for j := range c.Series {
					s := timeseries.SeriesData{Name: g.str(), Unit: g.str()}
					if n := g.count(); n >= 0 {
						s.Samples = make([][2]float64, n)
						for k := range s.Samples {
							s.Samples[k] = [2]float64{g.float(), g.float()}
						}
					}
					c.Series[j] = s
				}
			}
			a.Cells[i] = c
		}
	}
	return a
}

func (g *gen) critpathArtifact() *critpath.Artifact {
	a := &critpath.Artifact{Schema: g.str(), Manifest: g.manifest()}
	if n := g.count(); n >= 0 {
		a.Cells = make([]critpath.Iteration, n)
		for i := range a.Cells {
			it := critpath.Iteration{
				Label: g.str(), Total: g.float(), Compute: g.float(), CommSerial: g.float(),
				CommContention: g.float(), FaultRecovery: g.float(), Idle: g.float(),
				PathLen: g.float(), LongestChain: g.float(), MaxCausalDepth: g.u64() >> (g.byte() % 65),
				DagNodes: int(g.int()), DagEdges: int(g.int()), Dropped: int(g.int()),
			}
			if n := g.count(); n >= 0 {
				it.Segments = make([]critpath.Segment, n)
				for j := range it.Segments {
					it.Segments[j] = critpath.Segment{
						Kind: g.str(), Label: g.str(), Class: g.str(), Start: g.float(), End: g.float(),
						Blame:    critpath.Blame{Serial: g.float(), Contention: g.float(), Fault: g.float()},
						BindLink: g.str(),
					}
				}
			}
			a.Cells[i] = it
		}
	}
	return a
}

func (g *gen) studyResult() *serve.StudyResult {
	res := &serve.StudyResult{
		Schema: g.str(), ConfigHash: g.str(), Kind: g.str(), System: g.str(),
		Workload: g.str(), Strategy: g.str(), ElapsedSimS: g.float(), PerIterS: g.floats(),
	}
	if g.byte()%2 == 1 {
		res.Summary = &serve.StudySummary{
			TotalS: g.float(), ComputeS: g.float(), InputLoadS: g.float(),
			MPS: g.float(), DPS: g.float(), PPS: g.float(), StreamS: g.float(),
		}
	}
	if g.byte()%2 == 1 {
		res.Metrics = g.metricsArtifact()
	}
	return res
}

type document interface{ Encode() ([]byte, error) }

// checkDocument compares a document's one-pass encoding with the
// oracle's.
func checkDocument(t *testing.T, name string, doc document) {
	t.Helper()
	want, wantErr := json.MarshalIndent(doc, "", "  ")
	got, gotErr := doc.Encode()
	if (wantErr != nil) != (gotErr != nil) {
		t.Fatalf("%s: encoding/json error %v, jsonw error %v", name, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	want = append(want, '\n')
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo := max(0, i-40)
		t.Fatalf("%s: bytes differ at offset %d:\njsonw:         %q\nencoding/json: %q",
			name, i, got[lo:min(len(got), i+40)], want[lo:min(len(want), i+40)])
	}
	if cap(got) != len(got) {
		t.Fatalf("%s: cap %d != len %d", name, cap(got), len(got))
	}
}

// checkAll builds one random document of each kind from data.
func checkAll(t *testing.T, data []byte) {
	t.Helper()
	finite := len(data) == 0 || data[0]%4 != 0
	g := &gen{data: data, finite: finite}
	checkDocument(t, "metrics", g.metricsArtifact())
	checkDocument(t, "timeseries", g.timeseriesArtifact())
	checkDocument(t, "critpath", g.critpathArtifact())
	checkDocument(t, "study result", g.studyResult())
}

// FuzzEncode is the differential fuzz target of the four documents
// fredd and the observers write: random metrics, timeseries and
// critpath artifacts and study results must encode byte-identically to
// json.MarshalIndent, and NaN or ±Inf must be an error on both sides.
func FuzzEncode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add(bytes.Repeat([]byte{3, 255, 254, 253, 6, 9}, 40))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 16; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(checkAll)
}

// TestEncodeRandomDocuments runs the differential check on a fixed
// batch of random inputs, so plain `go test` covers more than the seed
// corpus.
func TestEncodeRandomDocuments(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 2000; i++ {
		data := make([]byte, rng.Intn(1024))
		rng.Read(data)
		checkAll(t, data)
	}
}

// TestScalars pins each scalar rule against json.Marshal.
func TestScalars(t *testing.T) {
	for _, s := range append(specialStrings, "\x00\x1f\x10", "\xe2\x80\xa8", "\xe2\x80") {
		want, _ := json.Marshal(s)
		got, err := jsonw.Encode(func(w *jsonw.Writer) { w.String(s) })
		if err != nil || string(got) != string(want)+"\n" {
			t.Errorf("string %q: got %q (%v), want %q", s, got, err, want)
		}
	}
	for _, f := range specialFloats {
		want, _ := json.Marshal(f)
		got, err := jsonw.Encode(func(w *jsonw.Writer) { w.Float(f) })
		if err != nil || string(got) != string(want)+"\n" {
			t.Errorf("float %g: got %q (%v), want %q", f, got, err, want)
		}
	}
	for _, f := range nonFinite {
		_, wantErr := json.Marshal(f)
		if _, err := jsonw.Encode(func(w *jsonw.Writer) { w.Float(f) }); err == nil || err.Error() != wantErr.Error() {
			t.Errorf("float %g: error %v, want %v", f, err, wantErr)
		}
	}
}

// TestLayout pins containers: nesting, empty containers and null.
func TestLayout(t *testing.T) {
	type inner struct {
		A []int             `json:"a"`
		B struct{}          `json:"b"`
		C []int             `json:"c"`
		D [][2]float64      `json:"d"`
		E map[string]string `json:"e"`
	}
	v := inner{A: []int{}, C: nil, D: [][2]float64{{1, 2}}}
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := jsonw.Encode(func(w *jsonw.Writer) {
		w.BeginObject()
		w.Key("a").BeginArray()
		w.EndArray()
		w.Key("b").BeginObject()
		w.EndObject()
		w.Key("c").Null()
		w.Key("d").BeginArray()
		w.BeginArray()
		w.Float(1)
		w.Float(2)
		w.EndArray()
		w.EndArray()
		w.Key("e").Null()
		w.EndObject()
	})
	if err != nil || string(got) != string(want)+"\n" {
		t.Fatalf("got %s (%v), want %s", got, err, want)
	}
}

// TestDeepNesting pins the indent past its precomputed depth.
func TestDeepNesting(t *testing.T) {
	var v any = []float64{1}
	for i := 0; i < 20; i++ {
		v = []any{v}
	}
	want, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got, err := jsonw.Encode(func(w *jsonw.Writer) {
		for i := 0; i < 21; i++ {
			w.BeginArray()
		}
		w.Float(1)
		for i := 0; i < 21; i++ {
			w.EndArray()
		}
	})
	if err != nil || string(got) != string(want)+"\n" {
		t.Fatalf("got %s (%v), want %s", got, err, want)
	}
}

// gpt3Baseline simulates one GPT-3 training iteration on the baseline
// mesh with metrics and timeseries collection on, and exports its
// artifacts: a typical observed-train cell.
func gpt3Baseline(b *testing.B) (*metrics.Artifact, *timeseries.Artifact) {
	b.Helper()
	sess := experiments.NewSession()
	sess.SetParallel(1)
	sess.CollectMetrics(true)
	sess.CollectTimeseries(true)
	m := workload.GPT3()
	strat := parallelism.Strategy{MP: m.DefaultMP, DP: m.DefaultDP, PP: m.DefaultPP}
	if _, err := sess.RunTraining(experiments.Baseline, m, strat, 16); err != nil {
		b.Fatal(err)
	}
	man := metrics.Manifest{Tool: "bench", Workload: m.Name, System: string(experiments.Baseline),
		Strategy: strat.String(), BatchPerReplica: 16}
	return sess.Metrics().Export(man), timeseries.Export(man, sess.TimeseriesCells())
}

var benchSink []byte

func benchmarkEncode(b *testing.B, doc document) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := doc.Encode()
		if err != nil {
			b.Fatal(err)
		}
		benchSink = data
	}
}

// BenchmarkMetricsArtifactEncode encodes a GPT-3 baseline cell's
// fred-metrics artifact.
func BenchmarkMetricsArtifactEncode(b *testing.B) {
	art, _ := gpt3Baseline(b)
	benchmarkEncode(b, art)
}

// BenchmarkTimeseriesArtifactEncode encodes a GPT-3 baseline cell's
// fred-timeseries artifact.
func BenchmarkTimeseriesArtifactEncode(b *testing.B) {
	_, art := gpt3Baseline(b)
	benchmarkEncode(b, art)
}
