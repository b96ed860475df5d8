package fred

import "testing"

// FuzzRoute routes arbitrary disjoint flow sets on Fred_m(P), m in
// {2, 3, 4} and P ≤ 16: every input yields either a plan whose data
// plane verifies or a *ConflictError — never a panic and never another
// error. The input is decoded by decodeFlows.
//
// Run the seed corpus with the ordinary test suite, or explore with:
// go test -run='^$' -fuzz=FuzzRoute ./internal/fred
func FuzzRoute(f *testing.F) {
	// Figures 7(h) and 7(i) on Fred_2(8); Figure 7(j), a conflict on
	// m = 2 that routes on m = 3.
	f.Add(encodeFlows(2, 8, []Flow{AllReduce([]int{0, 1, 2}), AllReduce([]int{3, 4, 5})}))
	f.Add(encodeFlows(2, 8, []Flow{AllReduce([]int{1, 2}), AllReduce([]int{3, 4}), AllReduce([]int{5, 6})}))
	fig7j := []Flow{AllReduce([]int{1, 2}), AllReduce([]int{3, 4}), AllReduce([]int{0, 5}), AllReduce([]int{6, 7})}
	f.Add(encodeFlows(2, 8, fig7j))
	f.Add(encodeFlows(3, 8, fig7j))
	// Unicast pairs, one wide all-reduce, a multicast beside a reduce,
	// and two interleaved all-reduces.
	for _, m := range []int{2, 3} {
		f.Add(encodeFlows(m, 8, []Flow{Unicast(0, 7), Unicast(1, 6)}))
		f.Add(encodeFlows(m, 8, []Flow{AllReduce([]int{0, 1, 2, 3})}))
		f.Add(encodeFlows(m, 8, []Flow{Multicast(0, []int{4, 5, 6}), Reduce([]int{1, 2}, 7)}))
		f.Add(encodeFlows(m, 8, []Flow{AllReduce([]int{0, 2, 4, 6}), AllReduce([]int{1, 3, 5, 7})}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, p, flows := decodeFlows(data)
		plan, err := NewInterconnect(m, p).Route(flows)
		if err != nil {
			if _, ok := err.(*ConflictError); !ok {
				t.Fatalf("Fred_%d(%d) %v: error %T: %v", m, p, flows, err, err)
			}
			return
		}
		if err := plan.Verify(); err != nil {
			t.Fatalf("Fred_%d(%d) %v: %v", m, p, flows, err)
		}
	})
}

// encodeFlows is decodeFlows' inverse for disjoint flows with fewer
// than 255 flows.
func encodeFlows(m, p int, flows []Flow) []byte {
	b := make([]byte, 2+2*p)
	b[0], b[1] = byte(m-2), byte(p-2)
	for i := 2; i < len(b); i++ {
		b[i] = 0xff
	}
	for k, fl := range flows {
		for _, ip := range fl.IPs {
			b[2+ip] = byte(k)
		}
		for _, op := range fl.OPs {
			b[2+p+op] = byte(k)
		}
	}
	return b
}

// decodeFlows reads m = 2 + data[0] mod 3 and P = 2 + data[1] mod 15,
// then one byte per input port and one per output port (missing bytes
// read as 0xff). A port byte b < P puts the port in flow b; any other
// value leaves it idle. Flows are numbered by label and keep only
// labels with at least one input and one output port, so the set is
// always valid and disjoint.
func decodeFlows(data []byte) (m, p int, flows []Flow) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0xff
	}
	m, p = 2+int(at(0))%3, 2+int(at(1))%15
	byLabel := make([]Flow, p)
	for port := 0; port < p; port++ {
		if k := int(at(2 + port)); k < p {
			byLabel[k].IPs = append(byLabel[k].IPs, port)
		}
		if k := int(at(2 + p + port)); k < p {
			byLabel[k].OPs = append(byLabel[k].OPs, port)
		}
	}
	for _, fl := range byLabel {
		if len(fl.IPs) > 0 && len(fl.OPs) > 0 {
			flows = append(flows, fl)
		}
	}
	return m, p, flows
}
