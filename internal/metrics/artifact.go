package metrics

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strconv"
	"strings"

	"github.com/wafernet/fred/internal/jsonw"
)

// Schema is the artifact schema identifier. fredreport accepts any
// "fred-metrics/*" version and reports cross-version comparisons.
const Schema = "fred-metrics/v1"

// Manifest identifies the run that produced an artifact: enough to
// tell whether two artifacts are comparable (same workload, system,
// parallelism config and engine revision) without re-reading the
// command lines that produced them.
type Manifest struct {
	// Tool is the producing command ("fredsim", "fredtrain", "bench").
	Tool string `json:"tool"`
	// Command is the experiment or sub-command that ran. It must not
	// encode execution-only knobs (worker-pool size, output paths):
	// artifacts of the same simulation are byte-identical regardless.
	Command string `json:"command,omitempty"`
	// Workload and System name the simulated configuration.
	Workload string `json:"workload,omitempty"`
	System   string `json:"system,omitempty"`
	// Strategy is the 3D parallelization strategy, e.g. "MP(3)-DP(3)-PP(2)".
	Strategy string `json:"strategy,omitempty"`
	// BatchPerReplica is the per-DP-replica minibatch.
	BatchPerReplica int `json:"batch_per_replica,omitempty"`
	// Schedule is the pipeline schedule ("GPipe", "1F1B").
	Schedule string `json:"schedule,omitempty"`
	// Seed is the RNG seed for randomized studies; 0 for the fully
	// deterministic drivers.
	Seed int64 `json:"seed,omitempty"`
	// EngineVersion is the simulator revision (metrics.EngineVersion).
	EngineVersion string `json:"engine_version,omitempty"`
	// ConfigHash is the FNV-1a hash of CanonicalKey — a stable identity
	// for "the same simulated configuration", the cache key groundwork
	// for fredd result reuse. Export stamps it when empty.
	ConfigHash string `json:"config_hash,omitempty"`
	// Notes carries free-form context (environment, methodology).
	Notes []string `json:"notes,omitempty"`
}

// CanonicalKey renders the manifest's identity fields — everything
// that determines the simulation's outcome, and nothing that doesn't
// (no output paths, no notes, no pool sizes) — as a stable ordered
// string. Two runs with equal keys simulate the same configuration on
// the same engine revision.
func (m Manifest) CanonicalKey() string {
	engine := m.EngineVersion
	if engine == "" {
		engine = EngineVersion
	}
	var b strings.Builder
	for _, kv := range [][2]string{
		{"tool", m.Tool},
		{"command", m.Command},
		{"workload", m.Workload},
		{"system", m.System},
		{"strategy", m.Strategy},
		{"batch", strconv.Itoa(m.BatchPerReplica)},
		{"schedule", m.Schedule},
		{"seed", strconv.FormatInt(m.Seed, 10)},
		{"engine", engine},
	} {
		if b.Len() > 0 {
			b.WriteByte('|')
		}
		b.WriteString(kv[0])
		b.WriteByte('=')
		b.WriteString(kv[1])
	}
	return b.String()
}

// Hash returns the 64-bit FNV-1a hash of CanonicalKey, hex-encoded.
func (m Manifest) Hash() string {
	h := fnv.New64a()
	h.Write([]byte(m.CanonicalKey()))
	return fmt.Sprintf("%016x", h.Sum64())
}

// Stamp fills the derived manifest fields when empty — the engine
// version and the canonical config hash — and returns the stamped
// copy. Exporters call it so every artifact is self-describing.
func (m Manifest) Stamp() Manifest {
	if m.EngineVersion == "" {
		m.EngineVersion = EngineVersion
	}
	if m.ConfigHash == "" {
		m.ConfigHash = m.Hash()
	}
	return m
}

// Bucket is one non-empty histogram bucket in an artifact: the weight
// of observations ≤ LE (and above the previous bound). The overflow
// bucket is flagged instead of carrying an unencodable +Inf bound.
type Bucket struct {
	LE       float64 `json:"le,omitempty"`
	Overflow bool    `json:"overflow,omitempty"`
	W        float64 `json:"w"`
}

// SeriesData is the artifact encoding of one series. Scalar kinds use
// Value; histograms carry derived statistics plus the sparse non-empty
// buckets.
type SeriesData struct {
	Name      string   `json:"name"`
	Kind      string   `json:"kind"`
	Unit      string   `json:"unit,omitempty"`
	Better    string   `json:"better,omitempty"`
	Tolerance float64  `json:"tolerance,omitempty"`
	Value     *float64 `json:"value,omitempty"`
	Count     float64  `json:"count,omitempty"`
	Sum       float64  `json:"sum,omitempty"`
	Min       float64  `json:"min,omitempty"`
	Max       float64  `json:"max,omitempty"`
	P50       float64  `json:"p50,omitempty"`
	P95       float64  `json:"p95,omitempty"`
	Buckets   []Bucket `json:"buckets,omitempty"`
}

// Artifact is the versioned machine-readable run record: a manifest
// plus every registry series, in registration order.
type Artifact struct {
	Schema   string       `json:"schema"`
	Manifest Manifest     `json:"manifest"`
	Series   []SeriesData `json:"series"`
}

// Export snapshots the registry into an artifact under the given
// manifest. The encoding is fully determined by the registry state:
// series in registration order, histograms as sparse non-empty buckets
// in bound order.
func (r *Registry) Export(m Manifest) *Artifact {
	a := &Artifact{Schema: Schema, Manifest: m.Stamp()}
	for _, s := range r.series {
		d := SeriesData{
			Name:      s.name,
			Kind:      s.kind.String(),
			Unit:      s.unit,
			Better:    s.better,
			Tolerance: s.tolerance,
		}
		switch s.kind {
		case KindCounter, KindGauge:
			v := s.value
			d.Value = &v
		case KindHistogram:
			d.Count = s.count
			d.Sum = s.sum
			d.Min = s.min
			d.Max = s.max
			d.P50 = s.Quantile(0.50)
			d.P95 = s.Quantile(0.95)
			for i, w := range s.weights {
				if w == 0 {
					continue
				}
				b := Bucket{W: w}
				if i < len(s.bounds) {
					b.LE = s.bounds[i]
				} else {
					b.Overflow = true
				}
				d.Buckets = append(d.Buckets, b)
			}
		}
		a.Series = append(a.Series, d)
	}
	return a
}

// Encode renders the artifact as indented JSON with a trailing newline
// in one pass (jsonw): the bytes json.MarshalIndent(a, "", "  ") would
// give, in an exact-size slice. The artifact holds only structs and
// slices (no maps), so the bytes are a pure function of it. A NaN or
// infinite value is an error.
func (a *Artifact) Encode() ([]byte, error) { return jsonw.Encode(a.WriteJSON) }

// WriteJSON writes the artifact as one JSON value, at whatever depth w
// is — the top of a file, or a member of a fredd study result.
func (a *Artifact) WriteJSON(w *jsonw.Writer) {
	w.BeginObject()
	w.Key("schema").String(a.Schema)
	w.Key("manifest")
	a.Manifest.WriteJSON(w)
	w.Key("series")
	if a.Series == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range a.Series {
			a.Series[i].writeJSON(w)
		}
		w.EndArray()
	}
	w.EndObject()
}

// WriteJSON writes the manifest as one JSON object; the timeseries and
// critpath artifacts embed it too.
func (m *Manifest) WriteJSON(w *jsonw.Writer) {
	w.BeginObject()
	w.Key("tool").String(m.Tool)
	w.OmitString("command", m.Command)
	w.OmitString("workload", m.Workload)
	w.OmitString("system", m.System)
	w.OmitString("strategy", m.Strategy)
	w.OmitInt("batch_per_replica", int64(m.BatchPerReplica))
	w.OmitString("schedule", m.Schedule)
	w.OmitInt("seed", m.Seed)
	w.OmitString("engine_version", m.EngineVersion)
	w.OmitString("config_hash", m.ConfigHash)
	if len(m.Notes) > 0 {
		w.Key("notes").BeginArray()
		for _, n := range m.Notes {
			w.String(n)
		}
		w.EndArray()
	}
	w.EndObject()
}

func (d *SeriesData) writeJSON(w *jsonw.Writer) {
	w.BeginObject()
	w.Key("name").String(d.Name)
	w.Key("kind").String(d.Kind)
	w.OmitString("unit", d.Unit)
	w.OmitString("better", d.Better)
	w.OmitFloat("tolerance", d.Tolerance)
	if d.Value != nil {
		w.Key("value").Float(*d.Value)
	}
	w.OmitFloat("count", d.Count)
	w.OmitFloat("sum", d.Sum)
	w.OmitFloat("min", d.Min)
	w.OmitFloat("max", d.Max)
	w.OmitFloat("p50", d.P50)
	w.OmitFloat("p95", d.P95)
	if len(d.Buckets) > 0 {
		w.Key("buckets").BeginArray()
		for _, b := range d.Buckets {
			w.BeginObject()
			w.OmitFloat("le", b.LE)
			w.OmitBool("overflow", b.Overflow)
			w.Key("w").Float(b.W)
			w.EndObject()
		}
		w.EndArray()
	}
	w.EndObject()
}

// Decode parses an artifact and validates its schema family.
func Decode(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("metrics: parsing artifact: %w", err)
	}
	if !strings.HasPrefix(a.Schema, "fred-metrics/") {
		return nil, fmt.Errorf("metrics: not a fred-metrics artifact (schema %q)", a.Schema)
	}
	return &a, nil
}

// WriteFile encodes the artifact to a file.
func (a *Artifact) WriteFile(path string) error {
	data, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ReadFile loads and validates an artifact from a file.
func ReadFile(path string) (*Artifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	a, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return a, nil
}

// Scalar returns the comparable headline value of a series: the value
// of a counter or gauge, the weighted mean of a histogram.
func (d *SeriesData) Scalar() float64 {
	if d.Value != nil {
		return *d.Value
	}
	if d.Count > 0 {
		return d.Sum / d.Count
	}
	return 0
}
