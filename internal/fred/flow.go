package fred

import "fmt"

// Flow is the unit of routing on a FRED switch (Section 5.1): the data
// arriving on every port in IPs is reduced into one stream, and the
// result is broadcast to every port in OPs. |IPs| and |OPs| are
// independent, which lets one flow express a unicast, multicast,
// reduce or all-reduce (Table 2).
type Flow struct {
	IPs   []int
	OPs   []int
	Label string
}

// String renders the flow like "{IPs:[3 4 5] OPs:[3 4 5]}".
func (f Flow) String() string {
	if f.Label != "" {
		return fmt.Sprintf("%s{IPs:%v OPs:%v}", f.Label, sortedCopy(f.IPs), sortedCopy(f.OPs))
	}
	return fmt.Sprintf("{IPs:%v OPs:%v}", sortedCopy(f.IPs), sortedCopy(f.OPs))
}

// Unicast builds the single-source single-destination flow.
func Unicast(in, out int) Flow {
	return Flow{IPs: []int{in}, OPs: []int{out}, Label: "unicast"}
}

// Multicast builds a one-to-many flow.
func Multicast(in int, outs []int) Flow {
	return Flow{IPs: []int{in}, OPs: sortedCopy(outs), Label: "multicast"}
}

// Reduce builds a many-to-one flow.
func Reduce(ins []int, out int) Flow {
	return Flow{IPs: sortedCopy(ins), OPs: []int{out}, Label: "reduce"}
}

// AllReduce builds the flow whose input and output port sets are the
// same group of NPUs: reduce everyone's data, broadcast the result
// back (the orange pattern of Figure 7(h)).
func AllReduce(ports []int) Flow {
	p := sortedCopy(ports)
	return Flow{IPs: p, OPs: append([]int(nil), p...), Label: "all-reduce"}
}

// Phase is a set of flows routed concurrently; compound collectives
// execute their phases serially (Table 2).
type Phase []Flow

// ReduceScatter decomposes a reduce-scatter among the given ports into
// serial Reduce flows, one per output port: during step j the
// reduction for chunk j lands on port j (Table 2).
func ReduceScatter(ports []int) []Phase {
	p := sortedCopy(ports)
	phases := make([]Phase, 0, len(p))
	for _, out := range p {
		phases = append(phases, Phase{Reduce(p, out)})
	}
	return phases
}

// AllGather decomposes an all-gather among the given ports into serial
// Multicast flows, one per input port: during step j port j broadcasts
// its chunk to the other members (Table 2).
func AllGather(ports []int) []Phase {
	p := sortedCopy(ports)
	phases := make([]Phase, 0, len(p))
	for i, in := range p {
		outs := make([]int, 0, len(p)-1)
		for j, q := range p {
			if j != i {
				outs = append(outs, q)
			}
		}
		phases = append(phases, Phase{Multicast(in, outs)})
	}
	return phases
}

// Scatter decomposes a scatter from root into serial Unicasts, one per
// destination (Table 2).
func Scatter(root int, outs []int) []Phase {
	phases := make([]Phase, 0, len(outs))
	for _, o := range sortedCopy(outs) {
		phases = append(phases, Phase{Unicast(root, o)})
	}
	return phases
}

// Gather decomposes a gather into root into serial Unicasts, one per
// source (Table 2).
func Gather(ins []int, root int) []Phase {
	phases := make([]Phase, 0, len(ins))
	for _, in := range sortedCopy(ins) {
		phases = append(phases, Phase{Unicast(in, root)})
	}
	return phases
}

// AllToAll decomposes an all-to-all among the given ports into
// len(ports)−1 serial steps of concurrent unicasts: in step
// 1 ≤ j < len(ports), each port sends to the member at distance j in
// the sorted port order (Table 2; the distance-0 step is a local copy
// and generates no switch traffic).
func AllToAll(ports []int) []Phase {
	p := sortedCopy(ports)
	n := len(p)
	phases := make([]Phase, 0, n-1)
	for j := 1; j < n; j++ {
		var ph Phase
		for k := 0; k < n; k++ {
			ph = append(ph, Unicast(p[k], p[(k+j)%n]))
		}
		phases = append(phases, ph)
	}
	return phases
}

// validateFlows checks that the flows are well formed and mutually
// compatible on a switch with p ports: ports in range, no duplicates
// within a flow, and no port shared between two flows on the same side
// (an input port sources at most one flow; an output port sinks at
// most one).
func validateFlows(p int, flows []Flow) error {
	inUsed := make(map[int]int)
	outUsed := make(map[int]int)
	for i, f := range flows {
		if len(f.IPs) == 0 || len(f.OPs) == 0 {
			return fmt.Errorf("fred: flow %d %v has empty port set", i, f)
		}
		seen := make(map[int]bool)
		for _, port := range f.IPs {
			if port < 0 || port >= p {
				return fmt.Errorf("fred: flow %d input port %d out of range [0,%d)", i, port, p)
			}
			if seen[port] {
				return fmt.Errorf("fred: flow %d repeats input port %d", i, port)
			}
			seen[port] = true
			if prev, ok := inUsed[port]; ok {
				return fmt.Errorf("fred: flows %d and %d share input port %d", prev, i, port)
			}
			inUsed[port] = i
		}
		seen = make(map[int]bool)
		for _, port := range f.OPs {
			if port < 0 || port >= p {
				return fmt.Errorf("fred: flow %d output port %d out of range [0,%d)", i, port, p)
			}
			if seen[port] {
				return fmt.Errorf("fred: flow %d repeats output port %d", i, port)
			}
			seen[port] = true
			if prev, ok := outUsed[port]; ok {
				return fmt.Errorf("fred: flows %d and %d share output port %d", prev, i, port)
			}
			outUsed[port] = i
		}
	}
	return nil
}
