// Placement: the Figure 5 device-placement study. On a 2D mesh, an
// MP(2)-DP(4)-PP(2) strategy cannot be placed without congesting at
// least one parallelism dimension; FRED with its consecutive placement
// serves all three. This example measures each dimension's concurrent
// collective time under three placements.
package main

import (
	"fmt"

	fred "github.com/wafernet/fred"
)

func main() {
	rows, tbl := fred.NewExperimentSession().PlacementStudy()
	fmt.Println(tbl)

	// The takeaway, computed explicitly: on the mesh, the best
	// placement for MP is the worst for DP and vice versa.
	byKey := map[string]float64{}
	for _, r := range rows {
		byKey[r.Placement+"/"+r.Dim.String()] = r.Time
	}
	fmt.Printf("mesh MP-first: MP %.3gms vs DP %.3gms\n",
		byKey["mesh MP-first (Fig 5a)/MP"]*1e3, byKey["mesh MP-first (Fig 5a)/DP"]*1e3)
	fmt.Printf("mesh DP-first: MP %.3gms vs DP %.3gms\n",
		byKey["mesh DP-first (Fig 5b)/MP"]*1e3, byKey["mesh DP-first (Fig 5b)/DP"]*1e3)
	fmt.Printf("Fred-D:        MP %.3gms vs DP %.3gms (no trade-off)\n",
		byKey["Fred-D consecutive/MP"]*1e3, byKey["Fred-D consecutive/DP"]*1e3)
}
