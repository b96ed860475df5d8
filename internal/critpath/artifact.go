package critpath

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"github.com/wafernet/fred/internal/jsonw"
	"github.com/wafernet/fred/internal/metrics"
)

// Schema is the critpath artifact schema identifier. Readers accept
// any "fred-critpath/*" version.
const Schema = "fred-critpath/v1"

// Artifact is the versioned machine-readable blame record: a run
// manifest (shared with fred-metrics artifacts) plus one analyzed
// iteration per cell, in cell order.
type Artifact struct {
	Schema   string           `json:"schema"`
	Manifest metrics.Manifest `json:"manifest"`
	Cells    []Iteration      `json:"cells"`
}

// Export wraps analyzed iterations into an artifact, stamping the
// manifest's engine version and canonical config hash.
func Export(m metrics.Manifest, cells []Iteration) *Artifact {
	return &Artifact{Schema: Schema, Manifest: m.Stamp(), Cells: cells}
}

// Encode renders the artifact as indented JSON with a trailing newline
// in one pass (jsonw): the bytes json.MarshalIndent(a, "", "  ") would
// give, in an exact-size slice. The artifact holds only structs and
// slices (no maps), so the bytes are a pure function of it — the basis
// of the byte-identical-at-every-pool-size guarantee. A NaN or
// infinite time is an error.
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

func (it *Iteration) writeJSON(w *jsonw.Writer) {
	w.BeginObject()
	w.OmitString("label", it.Label)
	w.Key("total_s").Float(it.Total)
	w.Key("compute_s").Float(it.Compute)
	w.Key("comm_serialized_s").Float(it.CommSerial)
	w.Key("comm_contention_s").Float(it.CommContention)
	w.Key("fault_recovery_s").Float(it.FaultRecovery)
	w.Key("idle_s").Float(it.Idle)
	w.Key("path_len_s").Float(it.PathLen)
	w.OmitFloat("longest_chain_s", it.LongestChain)
	w.OmitUint("max_causal_depth", it.MaxCausalDepth)
	w.OmitInt("dag_nodes", int64(it.DagNodes))
	w.OmitInt("dag_edges", int64(it.DagEdges))
	if len(it.Segments) > 0 {
		w.Key("segments").BeginArray()
		for i := range it.Segments {
			it.Segments[i].writeJSON(w)
		}
		w.EndArray()
	}
	w.OmitInt("dropped_segments", int64(it.Dropped))
	w.EndObject()
}

func (s *Segment) writeJSON(w *jsonw.Writer) {
	w.BeginObject()
	w.Key("kind").String(s.Kind)
	w.Key("label").String(s.Label)
	w.OmitString("class", s.Class)
	w.Key("start_s").Float(s.Start)
	w.Key("end_s").Float(s.End)
	w.Key("blame").BeginObject()
	w.Key("serial_s").Float(s.Blame.Serial)
	w.Key("contention_s").Float(s.Blame.Contention)
	w.Key("fault_s").Float(s.Blame.Fault)
	w.EndObject()
	w.OmitString("bind_link", s.BindLink)
	w.EndObject()
}

// Decode parses an artifact and validates its schema family.
func Decode(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("critpath: parsing artifact: %w", err)
	}
	if !strings.HasPrefix(a.Schema, "fred-critpath/") {
		return nil, fmt.Errorf("critpath: not a fred-critpath artifact (schema %q)", a.Schema)
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
