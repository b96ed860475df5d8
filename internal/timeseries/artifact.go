package timeseries

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"github.com/wafernet/fred/internal/jsonw"
	"github.com/wafernet/fred/internal/metrics"
)

// Schema is the timeseries artifact schema identifier. Readers accept
// any "fred-timeseries/*" version.
const Schema = "fred-timeseries/v1"

// SeriesData is the artifact encoding of one sampled series: the probe
// name/unit and its retained (time, value) samples. Samples share the
// cell's time base, but are stored per series so partial readers can
// skip series they do not care about.
type SeriesData struct {
	Name    string       `json:"name"`
	Unit    string       `json:"unit,omitempty"`
	Samples [][2]float64 `json:"samples"`
}

// Cell is one simulation's recorded series: the label names the system
// under test, IntervalS is the final (post-decimation) sampling
// interval, and Decimations counts how many times the ring halved.
type Cell struct {
	Label       string       `json:"label,omitempty"`
	IntervalS   float64      `json:"interval_s"`
	Decimations int          `json:"decimations,omitempty"`
	Series      []SeriesData `json:"series"`
}

// Artifact is the versioned machine-readable flight-recorder output: a
// run manifest (shared with fred-metrics artifacts) plus one cell per
// recorded simulation, in cell order.
type Artifact struct {
	Schema   string           `json:"schema"`
	Manifest metrics.Manifest `json:"manifest"`
	Cells    []Cell           `json:"cells"`
}

// Snapshot freezes a recorder into its artifact cell. The encoding is
// fully determined by the recorder state: series in probe-registration
// order, samples in time order.
func (r *Recorder) Snapshot() Cell {
	c := Cell{Label: r.label, IntervalS: r.interval, Decimations: r.decimations}
	for i, p := range r.probes {
		sd := SeriesData{Name: p.Name, Unit: p.Unit, Samples: make([][2]float64, len(r.times))}
		for j, t := range r.times {
			sd.Samples[j] = [2]float64{t, r.vals[i][j]}
		}
		c.Series = append(c.Series, sd)
	}
	return c
}

// Export wraps recorder snapshots into an artifact, stamping the
// manifest's engine version and canonical config hash.
func Export(m metrics.Manifest, cells []Cell) *Artifact {
	return &Artifact{Schema: Schema, Manifest: m.Stamp(), Cells: cells}
}

// Encode renders the artifact as indented JSON with a trailing newline
// in one pass (jsonw): the bytes json.MarshalIndent(a, "", "  ") would
// give, in an exact-size slice. The artifact holds only structs and
// slices (no maps), so the bytes are a pure function of it — the basis
// of the byte-identical-at-every-pool-size guarantee. A NaN or
// infinite sample is an error.
func (a *Artifact) Encode() ([]byte, error) { return jsonw.Encode(a.writeJSON) }

func (a *Artifact) writeJSON(w *jsonw.Writer) {
	w.BeginObject()
	w.Key("schema").String(a.Schema)
	w.Key("manifest")
	a.Manifest.WriteJSON(w)
	w.Key("cells")
	if a.Cells == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range a.Cells {
			a.Cells[i].writeJSON(w)
		}
		w.EndArray()
	}
	w.EndObject()
}

func (c *Cell) writeJSON(w *jsonw.Writer) {
	w.BeginObject()
	w.OmitString("label", c.Label)
	w.Key("interval_s").Float(c.IntervalS)
	w.OmitInt("decimations", int64(c.Decimations))
	w.Key("series")
	if c.Series == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range c.Series {
			c.Series[i].writeJSON(w)
		}
		w.EndArray()
	}
	w.EndObject()
}

func (d *SeriesData) writeJSON(w *jsonw.Writer) {
	w.BeginObject()
	w.Key("name").String(d.Name)
	w.OmitString("unit", d.Unit)
	w.Key("samples")
	if d.Samples == nil {
		w.Null()
	} else {
		w.BeginArray()
		for _, s := range d.Samples {
			w.BeginArray()
			w.Float(s[0])
			w.Float(s[1])
			w.EndArray()
		}
		w.EndArray()
	}
	w.EndObject()
}

// Decode parses an artifact and validates its schema family.
func Decode(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("timeseries: parsing artifact: %w", err)
	}
	if !strings.HasPrefix(a.Schema, "fred-timeseries/") {
		return nil, fmt.Errorf("timeseries: not a fred-timeseries artifact (schema %q)", a.Schema)
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
