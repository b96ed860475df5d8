package experiments

import (
	"github.com/wafernet/fred/internal/collective"
	"github.com/wafernet/fred/internal/parallelism"
	"github.com/wafernet/fred/internal/report"
)

// EPRow is one configuration of the beyond-3D-parallelism study.
type EPRow struct {
	Name      string
	Dims      int // active parallelism dimensions
	MeshTime  float64
	FredTime  float64
	FredDGain float64
}

// epCase is one deduplicated strategy of the EP study.
type epCase struct {
	name string
	dims int
	mp   [][]int
	ep   [][]int
	dp   [][]int
}

// EPStudy quantifies the paper's Section 8.3 claim that adding
// parallelization dimensions (here Expert Parallelism, whose peers
// exchange tokens via all-to-all) increases congestion on the baseline
// mesh while FRED keeps serving every group at port bandwidth. For
// each strategy, the concurrent communications of ALL dimensions (MP
// and EP at 1 GB per group member, DP at 1 GB) are launched together
// and the makespan measured on the mesh and on Fred-D. One cell per
// deduplicated strategy.
func (s *Session) EPStudy() ([]EPRow, *report.Table) {
	mk3 := func(st parallelism.Strategy) epCase {
		dims := 0
		for _, d := range []int{st.MP, st.DP, st.PP} {
			if d > 1 {
				dims++
			}
		}
		return epCase{name: st.String(), dims: dims, mp: st.MPGroups(), dp: st.DPGroups()}
	}
	mk4 := func(st parallelism.Strategy4D) epCase {
		dims := 0
		for _, d := range []int{st.MP, st.DP, st.PP, st.EP} {
			if d > 1 {
				dims++
			}
		}
		return epCase{name: st.String(), dims: dims, mp: st.MPGroups(), ep: st.EPGroups(), dp: st.DPGroups()}
	}
	all := []epCase{
		mk3(parallelism.Strategy{MP: 2, DP: 10, PP: 1}),
		mk3(parallelism.Strategy{MP: 2, DP: 5, PP: 2}),
		mk4(parallelism.Strategy4D{MP: 2, EP: 2, DP: 5, PP: 1}),
		mk4(parallelism.Strategy4D{MP: 2, EP: 5, DP: 2, PP: 1}),
		mk4(parallelism.Strategy4D{MP: 2, EP: 2, DP: 5, PP: 1}),
	}
	// Deduplicate repeated configs while keeping order, then fan out.
	seen := map[string]bool{}
	var cases []epCase
	for _, c := range all {
		if seen[c.name] {
			continue
		}
		seen[c.name] = true
		cases = append(cases, c)
	}

	rows := make([]EPRow, len(cases))
	s.forEach("EPStudy", len(cases), func(i int, cs *Session) {
		c := cases[i]
		measure := func(sys System) float64 {
			w := cs.Build(sys)
			comm := collective.NewComm(w)
			var scheds []collective.Schedule
			for _, g := range c.mp {
				if len(g) > 1 {
					scheds = append(scheds, comm.AllReduce(g, 1e9))
				}
			}
			for _, g := range c.ep {
				if len(g) > 1 {
					scheds = append(scheds, comm.AllToAll(g, 1e9))
				}
			}
			for _, g := range c.dp {
				if len(g) > 1 {
					scheds = append(scheds, comm.AllReduce(g, 1e9))
				}
			}
			return maxOf(collective.RunConcurrently(w.Network(), scheds))
		}
		row := EPRow{Name: c.name, Dims: c.dims}
		row.MeshTime = measure(Baseline)
		row.FredTime = measure(FredD)
		row.FredDGain = row.MeshTime / row.FredTime
		rows[i] = row
	})

	tbl := &report.Table{
		Title:  "Extension: beyond 3D parallelism — concurrent multi-dimension comm, mesh vs Fred-D",
		Header: []string{"strategy", "active dims", "mesh", "Fred-D", "gain"},
	}
	for _, row := range rows {
		tbl.AddRow(row.Name, row.Dims, row.MeshTime, row.FredTime, report.FormatX(row.FredDGain))
	}
	tbl.AddNote("Section 8.3: more parallelism dimensions raise mesh congestion; FRED's gain grows with dimension count")
	return rows, tbl
}
