// Weightstream: the weight-streaming execution model (Section 3.1.2).
// The baseline mesh cannot stream from all I/O controllers at line
// rate — broadcast trees overlap (2N−1)-fold on hotspot links
// (Figure 4) — while FRED's fat tree sustains full rate. This example
// shows the hotspot law and its end-to-end effect on GPT-3 and
// Transformer-1T training.
package main

import (
	"fmt"
	"log"

	fred "github.com/wafernet/fred"
)

func main() {
	// 1. The hotspot law, analytic and simulated.
	_, tbl := fred.NewExperimentSession().MeshIOStudy()
	fmt.Println(tbl)

	// 2. End-to-end weight-streaming workloads.
	for _, model := range []*fred.Model{fred.GPT3(), fred.Transformer1T()} {
		strategy := fred.Strategy{MP: model.DefaultMP, DP: model.DefaultDP, PP: model.DefaultPP}
		fmt.Printf("%s, strategy %v:\n", model, strategy)
		var base float64
		for _, sys := range []fred.SystemName{fred.SystemBaseline, fred.SystemFredD} {
			p := fred.NewPlatform(sys)
			r, err := fred.SimulateTraining(p, model, strategy, 16)
			if err != nil {
				log.Fatal(err)
			}
			if sys == fred.SystemBaseline {
				base = r.Total
			}
			fmt.Printf("  %-9s total %8.3fs  weight-stream exposed %8.3fs  (%.2fx)\n",
				sys, r.Total, r.Breakdown.Stream, base/r.Total)
		}
	}
	fmt.Println("paper (Figure 10): GPT-3 1.34x, Transformer-1T 1.4x; shape: FRED removes the I/O hotspot")
}
