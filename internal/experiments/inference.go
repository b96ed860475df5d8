package experiments

import (
	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/report"
	"github.com/wafernet/fred/internal/workload"
)

// InferenceRow is one (MP size, system) point of the inference study.
type InferenceRow struct {
	MP           int
	System       System
	TokenLatency float64 // seconds per decoded token
	TokensPerSec float64 // batch tokens per second
}

// InferenceStudy explores the paper's stated future work ("we plan to
// study Fred for distributed inference"): auto-regressive decoding of
// Transformer-17B. Each decoded token runs every layer's two Megatron
// MP all-reduces on a batch×hidden activation — a latency-sensitive,
// small-message regime, unlike training's bandwidth-bound collectives.
// Per-token latency = layers × (per-layer compute + 2 × all-reduce),
// with the all-reduce measured on the fabric. One cell per
// (MP size, system) pair; the baseline speedup column is derived at
// assembly.
func (s *Session) InferenceStudy() ([]InferenceRow, *report.Table) {
	const batch = 8
	m := workload.Transformer17B()
	layer := m.Layers[0]
	hidden := layer.ActivationBytes / (1024 * workload.FP16Bytes) // s·h·2 / (s·2)
	actBytes := batch * hidden * workload.FP16Bytes

	mps := []int{2, 5, 10, 20}
	systems := []System{Baseline, FredD}
	rows := make([]InferenceRow, len(mps)*len(systems))
	s.forEach("InferenceStudy", len(rows), func(i int, cs *Session) {
		mp, sys := mps[i/len(systems)], systems[i%len(systems)]
		group := make([]int, mp)
		for j := range group {
			group[j] = j
		}
		// Per-layer, per-token compute on one MP shard: the 24h² GEMMs
		// plus attention over a 1024-token context.
		perLayerFLOPs := (24*hidden*hidden + 4*1024*hidden) * batch / float64(mp)
		compute := perLayerFLOPs / (m.EffectiveTFLOPs * 1e12)

		w := cs.Build(sys)
		comm := collective.NewComm(w)
		ar := collective.RunToCompletion(w.Network(), comm.AllReduce(group, actBytes))
		latency := float64(len(m.Layers)) * (compute + 2*ar)
		rows[i] = InferenceRow{
			MP:           mp,
			System:       sys,
			TokenLatency: latency,
			TokensPerSec: batch / latency,
		}
	})

	tbl := &report.Table{
		Title:  "Future work: Transformer-17B auto-regressive decode (batch 8), per-token latency",
		Header: []string{"MP", "system", "token latency", "tokens/s", "speedup"},
	}
	var base float64
	for _, row := range rows {
		if row.System == Baseline {
			base = row.TokenLatency
		}
		tbl.AddRow(row.MP, string(row.System), row.TokenLatency, int(row.TokensPerSec), report.FormatX(base/row.TokenLatency))
	}
	tbl.AddNote("decode all-reduces are tiny (%.0f KB): hop latency and ring step count dominate, so FRED's single in-switch pass wins most at large MP", actBytes/1024)
	return rows, tbl
}
